/// \file gate.cpp
/// Problem generation and the correctness gate applied to every timed
/// factorization: the factors must match the core::host_* reference and
/// reproduce the input on a random probe block (projected residual).

#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "core/baseline.hpp"
#include "matrix/generate.hpp"

namespace perfbench {

using namespace ftla;

namespace {

// The gate applies the factors with plain loops of its own, so a defect
// in the library's kernels cannot cancel out of the check.

enum Triangle : unsigned { kUpper = 0, kLower = 1, kTransposed = 2, kUnitDiagonal = 4 };

/// Y ← T·X, T the triangle of `f` that `tri` selects.
MatD triangular_times(const MatD& f, unsigned tri, const MatD& x) {
  const bool lower = tri & kLower;
  const bool transpose = tri & kTransposed;
  const bool unit = tri & kUnitDiagonal;
  const index_t n = f.rows();
  MatD y(n, x.cols());
  for (index_t c = 0; c < x.cols(); ++c) {
    for (index_t k = 0; k < n; ++k) {
      if (transpose) {  // y(k) = Σ_i T(i,k)·x(i) over the column's triangle part
        double s = unit ? x(k, c) : f(k, k) * x(k, c);
        const index_t i0 = lower ? k + 1 : 0;
        const index_t i1 = lower ? n : k;
        for (index_t i = i0; i < i1; ++i) s += f(i, k) * x(i, c);
        y(k, c) = s;
      } else {  // y += T(:,k)·x(k)
        const double xk = x(k, c);
        y(k, c) += unit ? xk : f(k, k) * xk;
        const index_t i0 = lower ? k + 1 : 0;
        const index_t i1 = lower ? n : k;
        for (index_t i = i0; i < i1; ++i) y(i, c) += f(i, k) * xk;
      }
    }
  }
  return y;
}

/// Y ← F(X): the input as reconstructed from the factors, applied to X.
MatD apply_factors(Decomp d, const MatD& f, const std::vector<double>& tau, const MatD& x) {
  switch (d) {
    case Decomp::Cholesky:  // L·(Lᵀ·X)
      return triangular_times(f, kLower, triangular_times(f, kLower | kTransposed, x));
    case Decomp::Lu:  // L·(U·X), L unit lower
      return triangular_times(f, kLower | kUnitDiagonal, triangular_times(f, kUpper, x));
    case Decomp::Qr: {  // H_0·H_1·…·(R·X), H_i = I − tau_i·v_i·v_iᵀ, v_i(i) = 1
      MatD y = triangular_times(f, kUpper, x);
      const index_t n = f.rows();
      for (index_t i = static_cast<index_t>(tau.size()) - 1; i >= 0; --i) {
        for (index_t c = 0; c < y.cols(); ++c) {
          double s = y(i, c);
          for (index_t k = i + 1; k < n; ++k) s += f(k, i) * y(k, c);
          s *= tau[static_cast<std::size_t>(i)];
          y(i, c) -= s;
          for (index_t k = i + 1; k < n; ++k) y(k, c) -= s * f(k, i);
        }
      }
      return y;
    }
  }
  return x;
}

double frobenius(const MatD& m) {
  double s = 0.0;
  for (index_t j = 0; j < m.cols(); ++j)
    for (index_t i = 0; i < m.rows(); ++i) s += m(i, j) * m(i, j);
  return std::sqrt(s);
}

}  // namespace

double useful_flops(Decomp d, index_t n) {
  const double n3 = static_cast<double>(n) * static_cast<double>(n) * static_cast<double>(n);
  switch (d) {
    case Decomp::Cholesky: return n3 / 3.0;
    case Decomp::Lu: return 2.0 * n3 / 3.0;
    case Decomp::Qr: return 4.0 * n3 / 3.0;
  }
  return 0.0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Problem make_problem(Decomp d, index_t n, index_t nb, std::uint64_t matrix_seed) {
  Problem p;
  p.d = d;
  p.matrix_seed = matrix_seed;
  // The same generators core::Campaign uses, so a Campaign built with
  // this matrix seed factors exactly this input.
  switch (d) {
    case Decomp::Cholesky:
      p.a = random_spd(n, matrix_seed);
      p.ref = core::host_cholesky(p.a.const_view(), nb);
      break;
    case Decomp::Lu:
      p.a = random_diag_dominant(n, matrix_seed);
      p.ref = core::host_lu_nopiv(p.a.const_view(), nb);
      break;
    case Decomp::Qr:
      p.a = random_general(n, n, matrix_seed);
      p.ref = core::host_qr(p.a.const_view(), nb, p.ref_tau);
      break;
  }
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) p.ref_max = std::max(p.ref_max, std::abs(p.ref(i, j)));
  p.x = random_general(n, kProbeCols, mix_seed(matrix_seed, 99));
  p.ax = MatD(n, kProbeCols);
  for (index_t c = 0; c < kProbeCols; ++c)
    for (index_t k = 0; k < n; ++k)
      for (index_t i = 0; i < n; ++i) p.ax(i, c) += p.a(i, k) * p.x(k, c);
  p.ax_scale = frobenius(p.a) * frobenius(p.x);
  return p;
}

GateResult check_factors(const Problem& p, const MatD& factors,
                         const std::vector<double>& tau) {
  GateResult g;
  const index_t n = p.a.rows();
  if (factors.rows() != n || factors.cols() != n ||
      (p.d == Decomp::Qr && tau.size() != p.ref_tau.size())) {
    g.factor_diff = g.residual = INFINITY;
    return g;
  }
  double worst = 0.0;
  for (index_t j = 0; j < n; ++j) {
    const index_t i0 = p.d == Decomp::Cholesky ? j : 0;
    for (index_t i = i0; i < n; ++i) {
      const double diff = std::abs(factors(i, j) - p.ref(i, j));
      worst = std::isnan(diff) ? INFINITY : std::max(worst, diff);
    }
  }
  for (std::size_t i = 0; i < tau.size(); ++i) {
    const double diff = std::abs(tau[i] - p.ref_tau[i]);
    worst = std::isnan(diff) ? INFINITY : std::max(worst, diff);
  }
  g.factor_diff = worst / (1.0 + p.ref_max);

  const MatD y = apply_factors(p.d, factors, tau, p.x);
  double r2 = 0.0;
  for (index_t j = 0; j < kProbeCols; ++j)
    for (index_t i = 0; i < n; ++i) {
      const double r = p.ax(i, j) - y(i, j);
      r2 += r * r;
    }
  g.residual = std::sqrt(r2) / p.ax_scale;
  g.ok = g.factor_diff <= kFactorTol && g.residual <= kResidualTol;
  return g;
}

}  // namespace perfbench
