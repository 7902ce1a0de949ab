// Shared helpers for the paper-reproduction bench binaries.
//
// Each bench prints the corresponding paper artifact as an ASCII table; the
// helpers here run the standard environments and format results
// consistently. Everything is deterministic: same binary, same output.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "apps/experiments.hpp"
#include "chaos/chaos.hpp"
#include "common/table.hpp"
#include "middleware/run_result.hpp"
#include "workload/workload.hpp"

namespace cloudburst::bench {

using apps::Env;
using apps::PaperApp;

/// Shared command-line convention for the bench binaries. Every bench stays
/// self-running with no arguments (the defaults reproduce the paper
/// artifact); two flags tweak a run without editing code:
///   --seed=N   seed for the bench's randomized components (arrival traces,
///              RemoteSelection::Random, RunOptions::random_seed);
///   --quick    shrink sweeps to a CI-smoke subset (same code paths, fewer
///              points) — the bench should finish in a few seconds.
struct BenchArgs {
  std::uint64_t seed = 42;
  bool quick = false;

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--seed=", 7) == 0) {
        char* end = nullptr;
        args.seed = std::strtoull(arg + 7, &end, 10);
        if (end == arg + 7 || *end != '\0') {
          std::fprintf(stderr, "invalid --seed value: %s\n", arg + 7);
          std::exit(2);
        }
      } else if (std::strcmp(arg, "--quick") == 0) {
        args.quick = true;
      } else {
        std::fprintf(stderr, "usage: %s [--seed=N] [--quick]\n", argv[0]);
        std::exit(2);
      }
    }
    return args;
  }
};

/// Exit 1, naming `bench` on stderr, unless every job's attributed bill in
/// `result` sums to its platform bill (chaos::audit_bills).
inline void require_bills(const char* bench, const workload::WorkloadResult& result) {
  const chaos::AuditResult bills = chaos::audit_bills(result);
  if (bills.ok) return;
  std::fprintf(stderr, "%s: bills do not partition: %s\n", bench, bills.detail.c_str());
  std::exit(1);
}

/// Results of the five Figure-3 environments for one application.
struct EnvSweep {
  std::vector<apps::EnvConfig> configs;
  std::vector<middleware::RunResult> results;

  const middleware::RunResult& by_env(Env env, PaperApp app) const;
};

inline EnvSweep run_env_sweep(PaperApp app) {
  EnvSweep sweep;
  for (Env env : apps::kAllEnvs) {
    sweep.configs.push_back(apps::env_config(env, app));
    sweep.results.push_back(apps::run_env(env, app));
  }
  return sweep;
}

/// Figure 3: stacked processing / data retrieval / sync decomposition, one
/// row per (environment, cluster side).
inline void print_fig3(PaperApp app, const EnvSweep& sweep, const char* figure_label) {
  cloudburst::AsciiTable table({"env", "(m,n) cores", "side", "processing", "retrieval",
                                "sync", "node total", "exec time", "slowdown"});
  const double baseline = sweep.results.front().total_time;  // env-local
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    const auto& config = sweep.configs[i];
    const auto& result = sweep.results[i];
    std::string cores = "(";
    cores += std::to_string(config.local_cores);
    cores += ",";
    cores += std::to_string(config.cloud_cores);
    cores += ")";
    bool first_row = true;
    for (const auto& c : result.clusters) {
      if (c.nodes == 0) continue;
      table.add_row({first_row ? config.name : "", first_row ? cores : "",
                     c.name, cloudburst::AsciiTable::num(c.processing, 1),
                     cloudburst::AsciiTable::num(c.retrieval, 1),
                     cloudburst::AsciiTable::num(c.sync, 1),
                     cloudburst::AsciiTable::num(c.processing + c.retrieval + c.sync, 1),
                     first_row ? cloudburst::AsciiTable::num(result.total_time, 1) : "",
                     first_row ? cloudburst::AsciiTable::pct(
                                     result.total_time / baseline - 1.0, 1)
                               : ""});
      first_row = false;
    }
    table.add_separator();
  }
  std::printf("%s\n", table.render(std::string(figure_label) + " — " +
                                   apps::to_string(app) +
                                   " execution time decomposition (seconds)")
                          .c_str());
}

/// Average slowdown of the three hybrid environments vs env-local.
inline double average_hybrid_slowdown(const EnvSweep& sweep) {
  const double baseline = sweep.results.front().total_time;
  double total = 0.0;
  int n = 0;
  for (std::size_t i = 0; i < sweep.configs.size(); ++i) {
    if (sweep.configs[i].name.rfind("env-local", 0) == 0 ||
        sweep.configs[i].name.rfind("env-cloud", 0) == 0) {
      continue;
    }
    total += sweep.results[i].total_time / baseline - 1.0;
    ++n;
  }
  return n ? total / n : 0.0;
}

}  // namespace cloudburst::bench
