/// \file workload.cpp
/// Workloads, set-up (inputs, host references, campaigns, seeded fault
/// specs, warm-up) and the timed closed loop that yields the end-to-end
/// metrics.

#include <algorithm>
#include <cmath>
#include <optional>
#include <sys/resource.h>
#include <tuple>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/baseline.hpp"
#include "trace/recorder.hpp"

namespace perfbench {

using namespace ftla;
using core::Campaign;
using core::CampaignConfig;
using core::FtOptions;
using core::FtOutput;
using core::Outcome;
using fault::FaultSpec;
using fault::FaultType;
using fault::OpKind;

namespace {

// Why each workload exists is recorded in BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"forkjoin-1gpu", 1, core::SchedulerKind::ForkJoin, 1, false},
    {"dataflow-2gpu", 2, core::SchedulerKind::Dataflow, 2, false},
    {"faults-2gpu", 2, core::SchedulerKind::ForkJoin, 1, true},
};

/// Fault specs drawn per decomposition; a 30-second run uses about half,
/// so no spec repeats within a run.
constexpr int kFaultSpecs = 64;

/// A place in one decomposition's schedule where a fault of some type
/// can land: the injector hook's site and the block it offers.
struct Site {
  fault::OpSite site;
  trace::BlockRange blocks;  ///< candidate blocks (one for update sites)
  int gpu = -1;              ///< PCIe receiver (-1: the host)
};

/// The injector site whose post-transfer hook sees an arrival of `ctx`.
std::optional<OpKind> transfer_op(trace::TransferCtx ctx) {
  switch (ctx) {
    case trace::TransferCtx::Fetch: return OpKind::PD;
    case trace::TransferCtx::WritebackH2D:
    case trace::TransferCtx::BroadcastH2D: return OpKind::BroadcastH2D;
    case trace::TransferCtx::BroadcastD2D: return OpKind::BroadcastD2D;
    default: return std::nullopt;
  }
}

/// Draws `count` fault specs from the sites present in a fault-free
/// trace of the same configuration, cycling through computation, DRAM,
/// on-chip and PCIe faults. Update sites come from ComputeWrite events
/// (the hook offers the region's first block), on-chip sites from
/// reference-operand ComputeRead events, PCIe sites from annotated
/// arrivals (pinned to the receiving device so the draw is deterministic
/// when several streams receive concurrently).
std::vector<FaultSpec> derive_specs(const trace::Trace& tr, std::uint64_t seed, int count) {
  std::vector<Site> writes, reads, links;
  for (const auto& e : tr.events) {
    if (e.iteration < 0 || e.rclass != trace::RegionClass::Data) continue;
    const bool update_op = e.op == OpKind::PD || e.op == OpKind::PU || e.op == OpKind::TMU;
    if (e.kind == trace::EventKind::ComputeWrite && update_op) {
      writes.push_back({{e.iteration, e.op},
                        trace::BlockRange::single(e.region.br0, e.region.bc0), -1});
    } else if (e.kind == trace::EventKind::ComputeRead && e.part == fault::Part::Reference &&
               (e.op == OpKind::PU || e.op == OpKind::TMU)) {
      reads.push_back({{e.iteration, e.op}, e.region, -1});
    } else if (e.kind == trace::EventKind::TransferArrive) {
      if (const auto op = transfer_op(e.ctx)) {
        links.push_back({{e.iteration, *op},
                         trace::BlockRange::single(e.iteration, e.iteration), e.device});
      }
    }
  }
  // Streams of several GPUs interleave their events differently from run
  // to run; a canonical order makes the draw depend on the seed alone.
  auto key = [](const Site& s) {
    return std::tuple(s.site.iteration, static_cast<int>(s.site.op), s.blocks.br0,
                      s.blocks.br1, s.blocks.bc0, s.blocks.bc1, s.gpu);
  };
  for (auto* pool : {&writes, &reads, &links})
    std::sort(pool->begin(), pool->end(),
              [&](const Site& a, const Site& b) { return key(a) < key(b); });
  std::vector<FaultSpec> specs;
  if (writes.empty() || reads.empty() || links.empty()) return specs;
  Xoshiro256 rng(seed);
  constexpr FaultType kCycle[] = {FaultType::Computation, FaultType::MemoryDram,
                                  FaultType::MemoryOnChip, FaultType::Pcie};
  for (int i = 0; i < count; ++i) {
    FaultSpec s;
    s.type = kCycle[i % 4];
    const auto& pool = s.type == FaultType::MemoryOnChip ? reads
                       : s.type == FaultType::Pcie       ? links
                                                         : writes;
    const auto pick = rng.index(static_cast<index_t>(pool.size()));
    const Site& site = pool[static_cast<std::size_t>(pick)];
    s.site = site.site;
    s.target_br = site.blocks.br0 + rng.index(site.blocks.br1 - site.blocks.br0);
    s.target_bc = site.blocks.bc0 + rng.index(site.blocks.bc1 - site.blocks.bc0);
    s.target_gpu = site.gpu;
    s.part = s.type == FaultType::MemoryOnChip ? fault::Part::Reference : fault::Part::Update;
    if (s.type == FaultType::MemoryDram) {
      s.timing = rng.bounded(2) ? fault::Timing::BetweenOps : fault::Timing::DuringOp;
      // The panel's between-op hook offers it as the reference operand.
      if (s.site.op == OpKind::PD && s.timing == fault::Timing::BetweenOps)
        s.part = fault::Part::Reference;
    }
    s.seed = rng.next_u64() | 1;
    specs.push_back(s);
  }
  return specs;
}

/// Outcomes that leave a correct factorization without a restart.
bool corrected_in_place(Outcome o) {
  return o == Outcome::NoImpact || o == Outcome::CorrectedAbft ||
         o == Outcome::CorrectedRestart;
}

}  // namespace

std::string spec_string(const FaultSpec& spec) {
  return fault::describe(spec) + " block (" + std::to_string(spec.target_br) + "," +
         std::to_string(spec.target_bc) + ") gpu " + std::to_string(spec.target_gpu) +
         " seed " + std::to_string(spec.seed);
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

FtOptions ft_options(const Config& cfg) {
  FtOptions o;
  o.nb = cfg.nb;
  o.ngpu = cfg.workload->ngpu;
  o.scheduler = cfg.workload->scheduler;
  o.lookahead = cfg.workload->lookahead;
  return o;
}

FtOutput run_ft(Decomp d, ConstViewD a, const FtOptions& opts) {
  switch (d) {
    case Decomp::Cholesky: return core::ft_cholesky(a, opts);
    case Decomp::Lu: return core::ft_lu(a, opts);
    case Decomp::Qr: return core::ft_qr(a, opts);
  }
  return {};
}

FtOutput run_baseline(Decomp d, ConstViewD a, index_t nb, int ngpu) {
  switch (d) {
    case Decomp::Cholesky: return core::baseline_cholesky(a, nb, ngpu);
    case Decomp::Lu: return core::baseline_lu(a, nb, ngpu);
    case Decomp::Qr: return core::baseline_qr(a, nb, ngpu);
  }
  return {};
}

double median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? NAN : s / static_cast<double>(v.size());
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) {
    t.value = NAN;
    return t;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const auto rank = static_cast<std::size_t>(std::ceil(0.8 * static_cast<double>(n)));
  t.value = v[std::max<std::size_t>(rank, 1) - 1];
  t.beyond = n - std::max<std::size_t>(rank, 1);
  return t;
}

std::unique_ptr<Setup> build_setup(const Config& cfg, Spans& spans) {
  auto s = std::make_unique<Setup>();
  Spans::Scope scope(spans, "bench.setup");
  const Workload& w = *cfg.workload;
  auto fail = [&](const std::string& why) {
    s->ok = false;
    if (s->error.empty()) s->error = why;
  };

  for (std::size_t i = 0; i < 3; ++i) {
    const Decomp d = kDecomps[i];
    {
      Spans::Scope sc(spans, std::string("core.host_") + core::to_string(d));
      s->problems.push_back(make_problem(d, cfg.n, cfg.nb, mix_seed(cfg.seed, i)));
    }
    const Problem& p = s->problems.back();
    const GateResult g = check_factors(p, p.ref, p.ref_tau);
    if (!g.ok) fail(std::string("host reference of ") + core::to_string(d) + " fails");
  }
  {
    Spans::Scope sc(spans, "sim.system");
    s->system = std::make_unique<sim::HeterogeneousSystem>(w.ngpu);
  }

  const FtOptions opts = ft_options(cfg);
  for (std::size_t i = 0; i < 3; ++i) {
    const Decomp d = kDecomps[i];
    const Problem& p = s->problems[i];
    const std::string dn = core::to_string(d);
    if (w.faults) {
      CampaignConfig cc;
      cc.decomp = d;
      cc.opts = opts;
      cc.n = cfg.n;
      cc.matrix_seed = p.matrix_seed;
      // Timed runs are judged by the campaign's own comparison against
      // this reference, at the benchmark's factor tolerance.
      cc.result_tol = kFactorTol;
      s->campaigns.push_back(std::make_unique<Campaign>(cc));
      Campaign& c = *s->campaigns.back();
      {
        Spans::Scope sc(spans, "core.campaign_reference_" + dn);
        const FtOutput& ref = c.reference();
        if (!check_factors(p, ref.factors, ref.tau).ok)
          fail("campaign reference of " + dn + " fails the correctness gate");
      }
      // Fault sites are drawn from a fault-free trace of this very
      // configuration, so every spec names an op the schedule runs.
      trace::TraceRecorder rec;
      core::RunControls controls;
      controls.trace = &rec;
      {
        Spans::Scope sc(spans, "core.campaign_traced_" + dn);
        const auto r = c.run(std::vector<FaultSpec>{}, controls);
        if (r.outcome != Outcome::NoImpact) fail("clean traced campaign run failed: " + dn);
      }
      s->specs.push_back(
          derive_specs(rec.snapshot(), mix_seed(cfg.seed, 100 + i), kFaultSpecs));
      if (s->specs.back().empty()) fail("no fault sites found in the " + dn + " trace");
    } else {
      Spans::Scope sc(spans, "core.warmup_ft_" + dn);
      const FtOutput out = run_ft(d, p.a.const_view(), opts);
      if (!out.ok() || !check_factors(p, out.factors, out.tau).ok)
        fail("warm-up FT " + dn + " fails the correctness gate");
    }
    Spans::Scope sc(spans, "core.warmup_baseline_" + dn);
    const FtOutput base = run_baseline(d, p.a.const_view(), cfg.nb, w.ngpu);
    if (!base.ok() || !check_factors(p, base.factors, base.tau).ok)
      fail("warm-up baseline " + dn + " fails the correctness gate");
  }
  return s;
}

LoopResult run_timed_loop(const Config& cfg, Setup& setup, Spans& spans) {
  LoopResult res;
  const Workload& w = *cfg.workload;
  const FtOptions opts = ft_options(cfg);
  std::size_t next_spec[3] = {0, 0, 0};
  auto gate = [&](const Problem& p, const FtOutput& out) {
    const GateResult g = check_factors(p, out.factors, out.tau);
    res.worst_gate.factor_diff = std::max(res.worst_gate.factor_diff, g.factor_diff);
    res.worst_gate.residual = std::max(res.worst_gate.residual, g.residual);
    return g;
  };

  auto time_ft = [&](std::size_t i, int round) -> double {
    const Decomp d = kDecomps[i];
    const Problem& p = setup.problems[i];
    const std::string dn = core::to_string(d);
    auto& per = res.per[i];
    ++res.attempted;
    bool ok = false;
    double seconds = 0.0;
    core::FtStats stats;
    std::string why;
    if (w.faults) {
      Campaign& c = *setup.campaigns[i];
      const auto& specs = setup.specs[i];
      const FaultSpec spec = specs[next_spec[i]++ % specs.size()];
      Outcome outcome = Outcome::FaultNotTriggered;
      {
        Spans::Scope sc(spans, "core.campaign_" + dn, round);
        WallTimer t;
        auto r = c.run(spec);
        stats = r.stats;
        if (r.outcome == Outcome::DetectedUnrecoverable) {
          // Complete restart: a fresh fault-free run, inside the timer.
          ++res.complete_restarts;
          r = c.run(std::vector<FaultSpec>{});
        }
        seconds = t.seconds();
        outcome = r.outcome;
        res.worst_gate.factor_diff =
            std::max(res.worst_gate.factor_diff, r.factor_max_diff / (1.0 + p.ref_max));
      }
      ok = corrected_in_place(outcome);
      if (!ok) why = std::string(core::to_string(outcome)) + " for " + spec_string(spec);
    } else {
      FtOutput out;
      {
        Spans::Scope sc(spans, "core.ft_" + dn, round);
        WallTimer t;
        out = run_ft(d, p.a.const_view(), opts);
        seconds = t.seconds();
      }
      if (cfg.corrupt) out.factors(cfg.n - 1, 0) += 1e-3 * (1.0 + p.ref_max);
      stats = out.stats;
      Spans::Scope sc(spans, "bench.gate", round);
      const GateResult g = gate(p, out);
      ok = out.ok() && g.ok;
      if (!ok) {
        why = "factor diff " + std::to_string(g.factor_diff) + ", residual " +
              std::to_string(g.residual);
      }
    }
    if (!ok) {
      ++res.failed;
      res.failures.push_back("FT " + dn + ": " + why);
      return NAN;
    }
    per.ft_s.push_back(seconds);
    per.ft_overhead_s.push_back(stats.ft_overhead_seconds());
    per.encode_s.push_back(stats.encode_seconds);
    per.verify_s.push_back(stats.verify_seconds);
    per.maintain_s.push_back(stats.maintain_seconds);
    per.recovery_s.push_back(stats.recovery_seconds);
    return seconds;
  };

  auto time_baseline = [&](std::size_t i, int round) -> double {
    const Decomp d = kDecomps[i];
    const Problem& p = setup.problems[i];
    const std::string dn = core::to_string(d);
    ++res.attempted;
    FtOutput out;
    double seconds = 0.0;
    {
      Spans::Scope sc(spans, "core.baseline_" + dn, round);
      WallTimer t;
      out = run_baseline(d, p.a.const_view(), cfg.nb, w.ngpu);
      seconds = t.seconds();
    }
    Spans::Scope sc(spans, "bench.gate", round);
    const GateResult g = gate(p, out);
    if (!out.ok() || !g.ok) {
      ++res.failed;
      res.failures.push_back("baseline " + dn + ": factor diff " +
                             std::to_string(g.factor_diff) + ", residual " +
                             std::to_string(g.residual));
      return NAN;
    }
    res.per[i].base_s.push_back(seconds);
    return seconds;
  };

  // Closed loop: one factorization at a time, FT and baseline of the same
  // input back to back, alternating which goes first, so each pair sees
  // the same machine state and their ratio cancels its drift.
  WallTimer clock;
  for (int round = 0; round == 0 || clock.seconds() < cfg.seconds; ++round) {
    Spans::Scope sc(spans, "bench.round", round);
    for (std::size_t i = 0; i < 3; ++i) {
      double ft = NAN, base = NAN;
      if ((round + static_cast<int>(i)) % 2 == 0) {
        ft = time_ft(i, round);
        base = time_baseline(i, round);
      } else {
        base = time_baseline(i, round);
        ft = time_ft(i, round);
      }
      if (std::isfinite(ft) && std::isfinite(base)) res.per[i].pair_ratio.push_back(ft / base);
    }
  }
  return res;
}

void end_to_end_metrics(const Config& cfg, const LoopResult& loop,
                        const std::vector<double>& setup_s, Metrics& out) {
  double flops = 0.0;
  double ft_seconds = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string dn = core::to_string(kDecomps[i]);
    const auto& per = loop.per[i];
    const double med = median(per.ft_s);
    const double base = median(per.base_s);
    const Tail tail = tail_of(per.ft_s);
    out.push_back({dn + "_s", med, "s", "median of " + std::to_string(per.ft_s.size())});
    char note[128];
    std::snprintf(note, sizeof note, "p80 (nearest rank) of %zu samples, %zu beyond",
                  per.ft_s.size(), tail.beyond);
    out.push_back({dn + "_s_tail", tail.value, "s", note});
    std::snprintf(note, sizeof note, "median of %zu pairs; medians %.6f / %.6f s = %.4f",
                  per.pair_ratio.size(), med, base, med / base);
    out.push_back({dn + "_ft_ratio", median(per.pair_ratio), "ratio", note});
    flops += useful_flops(kDecomps[i], cfg.n);
    ft_seconds += med;
  }
  out.push_back({"factor_gflops", flops / ft_seconds * 1e-9, "GF/s",
                 "useful flops of the three FT medians"});
  const double failed_share = static_cast<double>(loop.failed) /
                              static_cast<double>(std::max<std::uint64_t>(1, loop.attempted));
  char share_note[160];
  std::snprintf(share_note, sizeof share_note,
                "failed_share %g (%llu of %llu), %llu complete restarts", failed_share,
                static_cast<unsigned long long>(loop.failed),
                static_cast<unsigned long long>(loop.attempted),
                static_cast<unsigned long long>(loop.complete_restarts));
  out.push_back({"correct_share", 1.0 - failed_share, "share", share_note});
  out.push_back({"setup_s", median(setup_s), "s",
                 "median of " + std::to_string(setup_s.size()) + " set-ups"});
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.push_back({"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB", ""});
}

}  // namespace perfbench
