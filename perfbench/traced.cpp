/// \file traced.cpp
/// The traced pass: per-layer counts read from the drivers' schedule
/// trace (FtOptions::trace on a benchmark-owned system), the proof of
/// which scheduler ran, the fork-join vs dataflow comparison, and the
/// per-layer timers taken as medians of the untraced timed loop.

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "bench.hpp"
#include "trace/recorder.hpp"

namespace perfbench {

using namespace ftla;
using core::FtOptions;
using core::FtOutput;
using core::Outcome;
using fault::OpKind;
using trace::EventKind;
using trace::TransferCtx;

namespace {

/// Fault specs of the faults workload replayed in the traced pass: one
/// full cycle of the four fault types.
constexpr std::size_t kTracedFaults = 4;
/// Fork-join/dataflow pairs timed for runtime.{d}.lookahead_gain.
constexpr int kGainPairs = 2;

constexpr TransferCtx kByteContexts[] = {TransferCtx::Fetch, TransferCtx::WritebackH2D,
                                         TransferCtx::BroadcastH2D, TransferCtx::BroadcastD2D,
                                         TransferCtx::Retransfer};

/// Counts one sync-captured driver trace contributes.
struct Counts {
  double iterations = 0, tmu_tiles = 0, tmu_blocks = 0, pu_blocks = 0, pd_panels = 0,
         pd_blocks = 0, dep_release = 0, transfers = 0, bytes = 0;
  double unannotated = 0;  ///< link bytes no annotated arrival claimed
  std::map<TransferCtx, double> bytes_by_ctx;

  void add(const trace::Trace& tr) {
    std::map<std::uint64_t, std::uint64_t> link_bytes;  // sync id → bytes
    double total = 0;
    // The dataflow drivers stamp events per task instead of bracketing
    // iterations, so count the distinct iteration stamps.
    std::set<index_t> stamps;
    for (const auto& e : tr.events) {
      if (e.iteration >= 0) stamps.insert(e.iteration);
      const bool data = e.rclass == trace::RegionClass::Data;
      switch (e.kind) {
        case EventKind::ComputeWrite:
          if (!data) break;
          if (e.op == OpKind::TMU) {
            ++tmu_tiles;
            tmu_blocks += static_cast<double>(e.region.blocks());
          } else if (e.op == OpKind::PU) {
            pu_blocks += static_cast<double>(e.region.blocks());
          } else if (e.op == OpKind::PD) {
            ++pd_panels;
            pd_blocks += static_cast<double>(e.region.blocks());
          }
          break;
        case EventKind::SyncSignal:
          if (e.edge == sim::SyncEdgeKind::DepRelease) ++dep_release;
          break;
        case EventKind::LinkTransfer:
          ++transfers;
          total += static_cast<double>(e.bytes);
          link_bytes[e.sync_id] += e.bytes;
          break;
        default: break;
      }
    }
    // Annotated arrivals carry the sync id of the raw link transfer they
    // complete, which attributes every byte to its purpose.
    double paired = 0;
    for (const auto& e : tr.events) {
      if (e.kind != EventKind::TransferArrive || e.sync_id == 0) continue;
      const auto it = link_bytes.find(e.sync_id);
      if (it == link_bytes.end()) continue;
      bytes_by_ctx[e.ctx] += static_cast<double>(it->second);
      paired += static_cast<double>(it->second);
      link_bytes.erase(it);
    }
    iterations += static_cast<double>(stamps.size());
    bytes += total;
    unannotated += total - paired;
  }

  void scale(double f) {
    for (double* v : {&iterations, &tmu_tiles, &tmu_blocks, &pu_blocks, &pd_panels,
                      &pd_blocks, &dep_release, &transfers, &bytes, &unannotated})
      *v *= f;
    for (auto& [ctx, b] : bytes_by_ctx) b *= f;
  }
};

const char* ctx_name(TransferCtx c) {
  switch (c) {
    case TransferCtx::Fetch: return "fetch";
    case TransferCtx::WritebackH2D: return "writeback_h2d";
    case TransferCtx::BroadcastH2D: return "broadcast_h2d";
    case TransferCtx::BroadcastD2D: return "broadcast_d2d";
    case TransferCtx::Retransfer: return "retransfer";
    default: return "other";
  }
}

}  // namespace

TracedResult run_traced_pass(const Config& cfg, Setup& setup, const LoopResult& loop,
                             Spans& spans, Metrics& out) {
  TracedResult res;
  const Workload& w = *cfg.workload;
  Spans::Scope pass(spans, "bench.traced_pass");
  sim::HeterogeneousSystem& sys = *setup.system;
  auto error = [&](const std::string& why) {
    res.ok = false;
    res.errors.push_back(why);
  };

  double traced_wall = 0.0;
  double untraced_wall = 0.0;
  double fault_runs = 0.0, triggered = 0.0, abft_corrected = 0.0;
  const double gemm_gflops = run_probes(cfg, sys, spans, out);

  for (std::size_t i = 0; i < 3; ++i) {
    const Decomp d = kDecomps[i];
    const std::string dn = core::to_string(d);
    const Problem& p = setup.problems[i];
    const auto& per = loop.per[i];
    Counts counts;
    core::FtStats rec_stats;  // recovery counters of the traced runs
    double complete_restarts = 0;
    double modeled_comm_s = 0.0;  // FtStats::merge does not sum it
    double wall = 0.0;
    double runs = 0;  // traced runs the per-run counts average over

    if (w.faults) {
      core::Campaign& c = *setup.campaigns[i];
      for (std::size_t f = 0; f < kTracedFaults && f < setup.specs[i].size(); ++f) {
        const fault::FaultSpec& spec = setup.specs[i][f];
        trace::TraceRecorder rec;
        rec.enable_sync_capture(true);
        core::RunControls controls;
        controls.trace = &rec;
        controls.system = &sys;
        Spans::Scope sc(spans, "core.campaign_traced_" + dn, static_cast<int>(f));
        WallTimer t;
        auto r = c.run(std::vector<fault::FaultSpec>{spec}, controls);
        counts.add(rec.snapshot());
        rec_stats.merge(r.stats);
        modeled_comm_s += r.stats.comm_modeled_seconds;
        ++fault_runs;
        if (r.outcome != Outcome::FaultNotTriggered) ++triggered;
        if (r.outcome == Outcome::CorrectedAbft) ++abft_corrected;
        if (r.outcome == Outcome::DetectedUnrecoverable) {
          ++complete_restarts;
          trace::TraceRecorder rec2;
          rec2.enable_sync_capture(true);
          controls.trace = &rec2;
          r = c.run(std::vector<fault::FaultSpec>{}, controls);
          counts.add(rec2.snapshot());
          rec_stats.merge(r.stats);
          modeled_comm_s += r.stats.comm_modeled_seconds;
        }
        wall += t.seconds();
        ++runs;
        if (r.outcome != Outcome::NoImpact && r.outcome != Outcome::CorrectedAbft &&
            r.outcome != Outcome::CorrectedRestart) {
          error("traced " + dn + " run ended " + core::to_string(r.outcome) + " for " +
                spec_string(spec));
        }
      }
    } else {
      trace::TraceRecorder rec;
      rec.enable_sync_capture(true);
      FtOptions opts = ft_options(cfg);
      opts.system = &sys;
      opts.trace = &rec;
      FtOutput o;
      {
        Spans::Scope sc(spans, "core.ft_traced_" + dn);
        WallTimer t;
        o = run_ft(d, p.a.const_view(), opts);
        wall += t.seconds();
      }
      runs = 1;
      counts.add(rec.snapshot());
      rec_stats.merge(o.stats);
      modeled_comm_s += o.stats.comm_modeled_seconds;
      if (!o.ok() || !check_factors(p, o.factors, o.tau).ok)
        error("traced " + dn + " run fails the correctness gate");
    }
    counts.scale(1.0 / runs);
    traced_wall += wall / runs;
    untraced_wall += median(per.ft_s);

    // Which scheduler ran: only the task runtime emits DepRelease edges.
    // Injected runs must run fork-join; the dataflow workload must not
    // silently fall back to it.
    const bool want_dataflow = w.scheduler == core::SchedulerKind::Dataflow && !w.faults;
    const bool ran_dataflow = counts.dep_release > 0;
    res.scheduler_ran.push_back(ran_dataflow ? "dataflow" : "fork-join");
    if (ran_dataflow != want_dataflow)
      error(dn + " ran " + res.scheduler_ran.back() + ", configured " +
            (want_dataflow ? "dataflow" : "fork-join"));

    // Lookahead: fork-join vs dataflow wall time, same configuration.
    std::vector<double> fj, df;
    for (int rep = 0; rep < kGainPairs; ++rep) {
      for (int leg = 0; leg < 2; ++leg) {
        const bool dataflow = (leg == 0) == (rep % 2 == 0);
        FtOptions o = ft_options(cfg);
        o.system = &sys;
        o.scheduler = dataflow ? core::SchedulerKind::Dataflow : core::SchedulerKind::ForkJoin;
        o.lookahead = 2;
        const std::string name =
            std::string("core.ft_") + (dataflow ? "dataflow_" : "forkjoin_") + dn;
        Spans::Scope sc(spans, name, rep);
        WallTimer t;
        const FtOutput r = run_ft(d, p.a.const_view(), o);
        (dataflow ? df : fj).push_back(t.seconds());
        if (!r.ok() || !check_factors(p, r.factors, r.tau).ok)
          error("lookahead comparison run of " + dn + " fails the correctness gate");
      }
    }

    const double ft_med = median(per.ft_s);
    const double base_med = median(per.base_s);
    const double overhead = median(per.ft_overhead_s);
    const double verify = median(per.verify_s);
    auto add = [&](const std::string& name, double v, const char* unit) {
      out.push_back({name, v, unit, ""});
    };
    add("core." + dn + ".baseline_s", base_med, "s");
    add("core." + dn + ".ft_overhead_s", overhead, "s");
    add("core." + dn + ".unattributed_s", ft_med - base_med - overhead, "s");
    add("core." + dn + ".iterations", counts.iterations, "count");
    add("core." + dn + ".gemm_frac", useful_flops(d, cfg.n) / ft_med * 1e-9 / gemm_gflops,
        "ratio");
    add("checksum." + dn + ".encode_s", median(per.encode_s), "s");
    add("checksum." + dn + ".verify_s", verify, "s");
    add("checksum." + dn + ".maintain_s", median(per.maintain_s), "s");
    const double blocks_verified = static_cast<double>(rec_stats.blocks_verified) / runs;
    add("checksum." + dn + ".blocks_verified", blocks_verified, "count");
    add("checksum." + dn + ".verify_ns_per_block",
        blocks_verified > 0 ? verify / blocks_verified * 1e9 : 0.0, "ns");
    // Recovery time is spiky across fault types, so it is a mean; the
    // recovery counters are totals over the traced fault cycle.
    add("recovery." + dn + ".recovery_s", mean(per.recovery_s), "s");
    auto total = [&](const char* name, double v) {
      add("recovery." + dn + "." + name, v, "count");
    };
    total("errors_detected", static_cast<double>(rec_stats.errors_detected));
    total("corrected_0d", static_cast<double>(rec_stats.corrected_0d));
    total("corrected_1d", static_cast<double>(rec_stats.corrected_1d));
    total("comm_errors_corrected", static_cast<double>(rec_stats.comm_errors_corrected));
    total("local_restarts", static_cast<double>(rec_stats.local_restarts));
    total("complete_restarts", complete_restarts);
    add("sim." + dn + ".pcie_transfers", counts.transfers, "count");
    add("sim." + dn + ".pcie_bytes", counts.bytes, "B");
    for (const TransferCtx c : kByteContexts)
      add("sim." + dn + ".pcie_bytes_" + ctx_name(c), counts.bytes_by_ctx[c], "B");
    add("sim." + dn + ".pcie_bytes_unannotated", counts.unannotated, "B");
    add("sim." + dn + ".pcie_modeled_s", modeled_comm_s / runs, "s");
    add("blas." + dn + ".tmu_tiles", counts.tmu_tiles, "count");
    add("blas." + dn + ".tmu_blocks", counts.tmu_blocks, "count");
    add("blas." + dn + ".pu_blocks", counts.pu_blocks, "count");
    add("lapack." + dn + ".pd_panels", counts.pd_panels, "count");
    add("lapack." + dn + ".pd_blocks", counts.pd_blocks, "count");
    add("runtime." + dn + ".lookahead_gain", median(fj) / median(df), "ratio");
    add("runtime." + dn + ".dep_release_edges", counts.dep_release, "count");
  }

  out.push_back({"fault.triggered_share", fault_runs > 0 ? triggered / fault_runs : 0.0,
                 "share", ""});
  out.push_back({"recovery.abft_share", triggered > 0 ? abft_corrected / triggered : 0.0,
                 "share", "corrected without restart / triggered"});
  out.push_back({"trace.overhead_ratio", traced_wall / untraced_wall, "ratio",
                 "traced / untraced FT wall time"});
  return res;
}

}  // namespace perfbench
