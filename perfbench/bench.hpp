#pragma once

/// \file bench.hpp
/// Shared vocabulary of ftla-perfbench, the repository's end-to-end
/// benchmark: workloads, per-decomposition problems with their host
/// references, the correctness gate, the in-memory span recorder, and
/// the metric list every pass appends to.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "core/campaign.hpp"
#include "core/ft_driver.hpp"
#include "fault/fault.hpp"
#include "matrix/matrix.hpp"
#include "sim/system.hpp"

namespace perfbench {

using ftla::MatD;
using ftla::index_t;
using ftla::core::Decomp;

inline constexpr Decomp kDecomps[] = {Decomp::Cholesky, Decomp::Lu, Decomp::Qr};

/// Useful flops of one n×n factorization (n³/3, 2n³/3, 4n³/3).
double useful_flops(Decomp d, index_t n);

// --- workloads ----------------------------------------------------------

struct Workload {
  const char* name;
  int ngpu;
  ftla::core::SchedulerKind scheduler;
  index_t lookahead;
  bool faults;  ///< every FT run carries one seeded fault via core::Campaign
};

/// nullptr when `name` names no workload.
const Workload* find_workload(const std::string& name);

struct Config {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  index_t n = 1024;
  index_t nb = 64;
  std::string trace_out;  ///< Chrome trace-event file (trace mode)
  /// Test hook: corrupt one element of every FT factor before the gate.
  bool corrupt = false;
};

/// FtOptions of the workload (checksum/scheme at their defaults).
ftla::core::FtOptions ft_options(const Config& cfg);

// --- problems and the correctness gate ----------------------------------

/// Columns of the random probe block X used by the projected residual.
inline constexpr index_t kProbeCols = 4;
/// Factor gate: max|F − F_host| ≤ kFactorTol·(1 + max|F_host|).
inline constexpr double kFactorTol = 1e-8;
/// Residual gate: ‖A·X − F(X)‖_F / (‖A‖_F·‖X‖_F) ≤ kResidualTol, where
/// F(X) applies the computed factors (L·Lᵀ·X, L·U·X or Q·R·X).
inline constexpr double kResidualTol = 1e-12;

/// One decomposition's input, generated from the workload seed, with the
/// core::host_* reference and the residual probe computed during setup.
struct Problem {
  Decomp d = Decomp::Cholesky;
  std::uint64_t matrix_seed = 0;
  MatD a;
  MatD ref;
  std::vector<double> ref_tau;
  double ref_max = 0.0;
  MatD x;   ///< n × kProbeCols
  MatD ax;  ///< A·X
  double ax_scale = 0.0;  ///< ‖A‖_F·‖X‖_F
};

Problem make_problem(Decomp d, index_t n, index_t nb, std::uint64_t matrix_seed);

struct GateResult {
  bool ok = false;
  double factor_diff = 0.0;  ///< relative to 1 + max|F_host|
  double residual = 0.0;
};

/// Checks computed factors (and QR tau) against the input and the host
/// reference. Cholesky compares the lower triangle only.
GateResult check_factors(const Problem& p, const MatD& factors,
                         const std::vector<double>& tau);

// --- spans ----------------------------------------------------------------

/// In-memory span recorder: one span per call into a layer, named
/// "<layer>.<call>". Single-threaded (the benchmark drives one thread);
/// disabled recorders cost one branch per span.
class Spans {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    int run = 0;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Spans& spans, std::string name, int run = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_ = -1;
  };

  /// Writes the spans as Chrome trace-event JSON (opens in Perfetto).
  void write_chrome_trace(const std::string& path, const std::string& meta_json) const;

  /// Self time per layer: each span's duration minus the part of it its
  /// child spans cover, summed by the layer prefix of its name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_seconds_by_layer() const;

 private:
  bool enabled_;
  ftla::WallTimer clock_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- metrics --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed next to the value only
};

using Metrics = std::vector<Metric>;

// --- passes -----------------------------------------------------------------

/// Everything built before timing starts.
struct Setup {
  std::vector<Problem> problems;  ///< indexed like kDecomps
  std::unique_ptr<ftla::sim::HeterogeneousSystem> system;
  std::vector<std::unique_ptr<ftla::core::Campaign>> campaigns;  ///< faults only
  std::vector<std::vector<ftla::fault::FaultSpec>> specs;       ///< faults only
  bool ok = true;
  std::string error;
};

/// Builds the setup once (inputs, host references, system, campaigns,
/// fault specs, warm-up).
std::unique_ptr<Setup> build_setup(const Config& cfg, Spans& spans);

/// Per-decomposition samples of the timed closed loop.
struct LoopResult {
  struct PerDecomp {
    std::vector<double> ft_s;    ///< time to a correct FT factorization
    std::vector<double> base_s;  ///< baseline_* time
    /// FT ÷ baseline time of the same round (both correct), back to back.
    std::vector<double> pair_ratio;
    std::vector<double> ft_overhead_s, encode_s, verify_s, maintain_s, recovery_s;
  };
  PerDecomp per[3];
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t complete_restarts = 0;
  GateResult worst_gate;  ///< largest factor diff and residual of the checks
  std::vector<std::string> failures;
};

LoopResult run_timed_loop(const Config& cfg, Setup& setup, Spans& spans);

/// Appends the end-to-end metrics.
void end_to_end_metrics(const Config& cfg, const LoopResult& loop,
                        const std::vector<double>& setup_s, Metrics& out);

struct TracedResult {
  bool ok = true;
  std::vector<std::string> errors;
  std::vector<std::string> scheduler_ran;  ///< per decomposition
};

/// Separate traced pass: per-layer counts from the driver trace and the
/// benchmark's spans, the lookahead comparison, and the layer probes.
TracedResult run_traced_pass(const Config& cfg, Setup& setup, const LoopResult& loop,
                             Spans& spans, Metrics& out);

/// Layer probes at the workload's shapes; returns blas.gemm_gflops.
double run_probes(const Config& cfg, ftla::sim::HeterogeneousSystem& system, Spans& spans,
                  Metrics& out);

// --- small helpers -----------------------------------------------------------

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// 80th percentile of the samples by nearest rank: the smallest sample
/// with at least 80% of the samples at or below it. A run holds 12–30
/// samples per decomposition, too few for a steady p90: on faults-2gpu
/// about one QR run in fifteen includes a complete restart, so a p90
/// lands on or off the restarts depending on the seed's fault draw.
struct Tail {
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples above the tail value's rank
};
Tail tail_of(std::vector<double> v);

ftla::core::FtOutput run_ft(Decomp d, ftla::ConstViewD a, const ftla::core::FtOptions& opts);
ftla::core::FtOutput run_baseline(Decomp d, ftla::ConstViewD a, index_t nb, int ngpu);

/// A fault spec with everything that pins it: type, site, block, receiver, seed.
std::string spec_string(const ftla::fault::FaultSpec& spec);

/// Deterministic 64-bit mix of a seed and a stream index.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
