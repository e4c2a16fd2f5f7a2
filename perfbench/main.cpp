/// \file main.cpp
/// ftla-perfbench: the repository's end-to-end benchmark.
///
///   ftla-perfbench --workload NAME --seed N --seconds S --trace 0|1
///                  [--n N] [--nb NB] [--trace-out FILE]
///
/// One process, one driving thread. Set-up (inputs and host references
/// from the seed, system construction, campaigns, warm-up) runs
/// kSetupReps times and is timed; then a closed loop runs FT and
/// baseline factorizations of all three decompositions for S seconds,
/// checking every result. --trace 1 adds a separate traced pass for the
/// per-layer metrics and writes the benchmark's spans as a Chrome trace.
///
/// Every metric is printed as "name value unit"; the last line is one
/// JSON object {"correct", "attempted", "failed", "metrics"} holding the
/// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
/// Exit status: 0 when every check passed, 1 when a factorization or a
/// check failed, 2 on bad usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "blas/simd.hpp"

#ifndef FTLA_PERFBENCH_BUILD_TYPE
#define FTLA_PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;

int usage(const char* why) {
  std::fprintf(stderr,
               "ftla-perfbench: %s\n"
               "usage: ftla-perfbench --workload forkjoin-1gpu|dataflow-2gpu|faults-2gpu"
               " --seed N --seconds S --trace 0|1 [--n N] [--nb NB] [--trace-out FILE]\n",
               why);
  return 2;
}

bool parse_number(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0' && std::isfinite(out);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

/// The configuration that ran and the host it ran on.
std::string fingerprint(const Config& cfg) {
  const auto& cpu = ftla::blas::detail::cpu_features();
  const auto opts = ft_options(cfg);
  std::ostringstream os;
  os << "{\"workload\":" << json_string(cfg.workload->name) << ",\"seed\":" << cfg.seed
     << ",\"seconds\":" << json_number(cfg.seconds) << ",\"trace\":" << (cfg.trace ? 1 : 0)
     << ",\"n\":" << cfg.n << ",\"nb\":" << cfg.nb << ",\"ngpu\":" << opts.ngpu
     << ",\"scheduler\":" << json_string(to_string(opts.scheduler))
     << ",\"lookahead\":" << opts.lookahead
     << ",\"checksum\":" << json_string(to_string(opts.checksum))
     << ",\"scheme\":" << json_string(to_string(opts.scheme))
     << ",\"faults\":" << (cfg.workload->faults ? "true" : "false")
     << ",\"setup_reps\":" << kSetupReps
     << ",\"cores\":" << std::thread::hardware_concurrency()
     << ",\"avx2\":" << (cpu.avx2 ? "true" : "false")
     << ",\"fma\":" << (cpu.fma ? "true" : "false")
     << ",\"force_scalar\":" << (cpu.force_scalar ? "true" : "false")
#if defined(__clang__)
     << ",\"compiler\":" << json_string(std::string("clang ") + __clang_version__)
#elif defined(__GNUC__)
     << ",\"compiler\":" << json_string(std::string("gcc ") + __VERSION__)
#else
     << ",\"compiler\":\"unknown\""
#endif
     << ",\"build_type\":" << json_string(FTLA_PERFBENCH_BUILD_TYPE) << "}";
  return os.str();
}

int run_benchmark(const Config& cfg) {
  const std::string fp = fingerprint(cfg);
  std::cout << "config " << fp << "\n" << std::flush;

  Spans spans(cfg.trace);
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    setup.reset();  // one set-up alive at a time
    ftla::WallTimer t;
    setup = build_setup(cfg, spans);
    setup_s.push_back(t.seconds());
  }

  for (std::size_t i = 0; i < setup->specs.size(); ++i) {
    std::cout << "fault_specs " << to_string(kDecomps[i]);
    for (const auto& spec : setup->specs[i]) std::cout << " | " << spec_string(spec);
    std::cout << "\n";
  }

  bool correct = setup->ok;
  std::vector<std::string> errors;
  if (!setup->ok) errors.push_back("set-up: " + setup->error);

  LoopResult loop;
  Metrics e2e, layers;
  if (setup->ok) {
    loop = run_timed_loop(cfg, *setup, spans);
    end_to_end_metrics(cfg, loop, setup_s, e2e);
    if (cfg.trace) {
      const TracedResult tr = run_traced_pass(cfg, *setup, loop, spans, layers);
      for (const auto& e : tr.errors) errors.push_back("traced pass: " + e);
      correct = correct && tr.ok;
      std::string ran;
      for (std::size_t i = 0; i < tr.scheduler_ran.size(); ++i) {
        if (i) ran += ",";
        ran += std::string(to_string(kDecomps[i])) + "=" + tr.scheduler_ran[i];
      }
      std::cout << "scheduler_ran " << ran << "\n";
      // The spans wrap whole core::* calls, so factorization time is all
      // core self time; blas, lapack, checksum and sim spans wrap only the
      // benchmark's probe and set-up calls and are printed, not reported.
      const auto self = spans.self_seconds_by_layer();
      auto self_of = [&](const std::string& layer) {
        for (const auto& [name, secs] : self)
          if (name == layer) return secs;
        return 0.0;
      };
      for (const char* layer : {"bench", "core"})
        layers.push_back({std::string("trace.") + layer + ".self_s", self_of(layer), "s",
                          "span self time"});
      std::printf("probe_self_s");
      for (const char* layer : {"blas", "lapack", "checksum", "sim"})
        std::printf(" %s=%.6g", layer, self_of(layer));
      std::printf("  # span self time of the probe and set-up calls\n");
      if (!cfg.trace_out.empty()) {
        spans.write_chrome_trace(cfg.trace_out, fp);
        std::cout << "chrome_trace " << cfg.trace_out << "\n";
      }
    }
  }
  for (const auto& f : loop.failures) errors.push_back(f);
  correct = correct && loop.failed == 0;

  for (const auto& m : e2e)
    std::printf("%-40s %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  # ", m.note.c_str());
  for (const auto& m : layers)
    std::printf("%-40s %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  # ", m.note.c_str());
  // Campaign runs return the outcome and the factor difference only.
  std::printf("gate max factor_diff %.3g (tolerance %.0e), "
              "max residual %.3g (tolerance %.0e)%s\n",
              loop.worst_gate.factor_diff, kFactorTol, loop.worst_gate.residual, kResidualTol,
              cfg.workload->faults
                  ? "; FT runs checked by core::Campaign against its reference, "
                    "residual of the baselines only"
                  : "");
  for (const auto& e : errors) std::printf("FAILED %s\n", e.c_str());

  std::ostringstream js;
  js << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":"
     << std::max<std::uint64_t>(1, loop.attempted) << ",\"failed\":"
     << (correct ? loop.failed : std::max<std::uint64_t>(1, loop.failed)) << ",\"metrics\":{";
  const Metrics& reported = cfg.trace ? layers : e2e;
  for (std::size_t i = 0; i < reported.size(); ++i) {
    js << (i ? "," : "") << json_string(reported[i].name)
       << ":{\"value\":" << json_number(reported[i].value)
       << ",\"unit\":" << json_string(reported[i].unit) << "}";
  }
  js << "}}";
  std::cout << std::flush;
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-factor") {
      cfg.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    double num = 0.0;
    const bool is_num = parse_number(val, num);
    if (arg == "--workload") {
      cfg.workload = find_workload(val);
      if (!cfg.workload) return usage("unknown workload");
    } else if (arg == "--seed" && is_num && num >= 0 && num == std::floor(num)) {
      cfg.seed = static_cast<std::uint64_t>(num);
      have_seed = true;
    } else if (arg == "--seconds" && is_num && num > 0) {
      cfg.seconds = num;
      have_seconds = true;
    } else if (arg == "--trace" && is_num && (num == 0 || num == 1)) {
      cfg.trace = num == 1;
      have_trace = true;
    } else if (arg == "--n" && is_num && num >= 64 && num == std::floor(num)) {
      cfg.n = static_cast<index_t>(num);
    } else if (arg == "--nb" && is_num && num >= 8 && num == std::floor(num)) {
      cfg.nb = static_cast<index_t>(num);
    } else if (arg == "--trace-out") {
      cfg.trace_out = val;
    } else {
      return usage(("bad argument " + arg + " " + val).c_str());
    }
  }
  if (!cfg.workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");
  if (cfg.n % cfg.nb != 0 || cfg.n / cfg.nb < 4)
    return usage("--n must be a multiple of --nb with at least 4 blocks");

  try {
    return run_benchmark(cfg);
  } catch (const std::exception& e) {
    // A throw from any layer is a failed run; report it as one.
    std::printf("FAILED %s\n{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{}}\n",
                e.what());
    return 1;
  }
}
