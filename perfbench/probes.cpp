/// \file probes.cpp
/// Layer probes at the workload's shapes, each reported as a rate and as
/// a fraction of the packed GEMM rate measured in the same run.

#include <functional>

#include "bench.hpp"
#include "blas/level3.hpp"
#include "checksum/encode.hpp"
#include "lapack/lapack.hpp"
#include "matrix/generate.hpp"

namespace perfbench {

using namespace ftla;
using blas::Trans;

namespace {

constexpr int kSamples = 5;
/// A timed sample repeats its call until it has run this long.
constexpr double kMinSampleSeconds = 0.02;

/// Median over kSamples of the per-call seconds of `call`; `prepare`
/// runs before every call, outside the timer.
double per_call_seconds(Spans& spans, const std::string& span,
                        const std::function<void()>& prepare,
                        const std::function<void()>& call) {
  std::vector<double> samples;
  for (int s = 0; s < kSamples; ++s) {
    Spans::Scope sc(spans, span, s);
    double busy = 0.0;
    int calls = 0;
    while (busy < kMinSampleSeconds) {
      prepare();
      WallTimer t;
      call();
      busy += t.seconds();
      ++calls;
    }
    samples.push_back(busy / calls);
  }
  return median(samples);
}

double gemm_flops(index_t m, index_t n, index_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
}

}  // namespace

double run_probes(const Config& cfg, sim::HeterogeneousSystem& system, Spans& spans,
                  Metrics& out) {
  Spans::Scope probes(spans, "bench.probes");
  const index_t n = cfg.n;
  const index_t nb = cfg.nb;
  const std::uint64_t seed = mix_seed(cfg.seed, 200);
  auto nothing = [] {};

  // Host reference rate: packed gemm at n³.
  const MatD a = random_general(n, n, seed);
  const MatD b = random_general(n, n, seed + 1);
  MatD c(n, n);
  const double gemm_s = per_call_seconds(spans, "blas.gemm", nothing, [&] {
    blas::gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a.const_view(), b.const_view(), 0.0,
               c.view());
  });
  const double gemm_gflops = gemm_flops(n, n, n) / gemm_s * 1e-9;
  out.push_back({"blas.gemm_gflops", gemm_gflops, "GF/s", "packed gemm at n^3"});

  auto rate = [&](const std::string& name, double flops, double seconds) {
    const double gf = flops / seconds * 1e-9;
    out.push_back({name + "_gflops", gf, "GF/s", ""});
    out.push_back({name + "_frac", gf / gemm_gflops, "ratio", "of blas.gemm_gflops"});
  };

  // The nb³ TMU tile through the packed and the sequential kernels.
  const ConstViewD ta = a.block(0, 0, nb, nb);
  const ConstViewD tb = b.block(0, 0, nb, nb);
  ViewD tc = c.block(0, 0, nb, nb);
  rate("blas.tile_gemm", gemm_flops(nb, nb, nb),
       per_call_seconds(spans, "blas.gemm_tile", nothing, [&] {
         blas::gemm(Trans::NoTrans, Trans::Trans, -1.0, ta, tb, 1.0, tc);
       }));
  rate("blas.tile_gemm_seq", gemm_flops(nb, nb, nb),
       per_call_seconds(spans, "blas.gemm_seq_tile", nothing, [&] {
         blas::gemm_seq(Trans::NoTrans, Trans::Trans, -1.0, ta, tb, 1.0, tc);
       }));

  // One trailing-strip update: (n−nb)×(n−nb)×nb.
  const index_t m = n - nb;
  const ConstViewD sa = a.block(nb, 0, m, nb);
  const ConstViewD sb = b.block(nb, 0, m, nb);
  ViewD sc = c.block(nb, nb, m, m);
  rate("blas.strip_gemm", gemm_flops(m, m, nb),
       per_call_seconds(spans, "blas.gemm_strip", nothing, [&] {
         blas::gemm(Trans::NoTrans, Trans::Trans, -1.0, sa, sb, 1.0, sc);
       }));

  // Panel factorizations on the drivers' PD shapes.
  const double nbd = static_cast<double>(nb);
  const double nd = static_cast<double>(n);
  {
    // Cholesky's PD factors the nb×nb diagonal block.
    const MatD spd = random_spd(nb, seed + 2);
    MatD work(nb, nb);
    rate("lapack.cholesky.panel", nbd * nbd * nbd / 3.0,
         per_call_seconds(spans, "lapack.potrf2",
                          [&] { copy_view(spd.const_view(), work.view()); },
                          [&] { lapack::potrf2(work.view()); }));
  }
  {
    const MatD dd = random_diag_dominant(n, seed + 3);
    const ConstViewD panel = dd.block(0, 0, n, nb);
    MatD work(n, nb);
    rate("lapack.lu.panel", nd * nbd * nbd - nbd * nbd * nbd / 3.0,
         per_call_seconds(spans, "lapack.getrf2_nopiv",
                          [&] { copy_view(panel, work.view()); },
                          [&] { lapack::getrf2_nopiv(work.view()); }));
    std::vector<double> tau;
    rate("lapack.qr.panel", 2.0 * nd * nbd * nbd - 2.0 * nbd * nbd * nbd / 3.0,
         per_call_seconds(spans, "lapack.geqrf2", [&] { copy_view(panel, work.view()); },
                          [&] { lapack::geqrf2(work.view(), tau); }));
  }

  // Column-checksum encode of one tile (2 flops per element).
  MatD cs(2, nb);
  const double encode_s = per_call_seconds(spans, "checksum.encode_col", nothing, [&] {
    checksum::encode_col(ta, cs.view());
  });
  out.push_back({"checksum.encode_gbps",
                 static_cast<double>(nb * nb) * sizeof(double) / encode_s * 1e-9, "GB/s",
                 "tile bytes read"});
  out.push_back({"checksum.encode_frac", 2.0 * nbd * nbd / encode_s * 1e-9 / gemm_gflops,
                 "ratio", "of blas.gemm_gflops"});

  // One n×nb panel over the simulated PCIe link, GPU 0 → host.
  {
    MatD& src = system.gpu(0).alloc(n, nb, 1.0);
    MatD& dst = system.cpu().alloc(n, nb);
    auto& link = system.link();
    const double copy_s = per_call_seconds(spans, "sim.pcie_transfer", nothing, [&] {
      link.transfer(src.const_view(), dst.view(), system.gpu(0).id(), system.cpu().id());
    });
    const auto bytes = static_cast<byte_size_t>(n * nb) * sizeof(double);
    const double gbps = static_cast<double>(bytes) / copy_s * 1e-9;
    out.push_back({"sim.pcie_copy_gbps", gbps, "GB/s", "one n x nb panel"});
    const double model_gbps =
        static_cast<double>(bytes) / link.modeled_transfer_seconds(bytes) * 1e-9;
    out.push_back(
        {"sim.pcie_copy_frac", gbps / model_gbps, "ratio", "of the link model's rate"});
    system.free_all();
    link.reset_stats();
  }
  return gemm_gflops;
}

}  // namespace perfbench
