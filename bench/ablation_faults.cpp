// Ablation: transient store faults x retry policy.
//
// Injects per-request failure probabilities (and, at a quarter of that rate,
// hung GETs that stall for two minutes) into the cloud object store on the
// knn env-50/50 run and sweeps the client-side resilience policy:
//   none    — single attempt; the slave's permanent-failure fallback restarts
//             the whole fetch after a maximal backoff;
//   backoff — 3 attempts, exponential backoff (50 ms base, x2): absorbs the
//             failed GETs but still waits out every hung one;
//   hedged  — backoff + a 60 s attempt timeout + a hedged second GET after
//             5 s, which is what actually cuts the hung-GET tail. (The
//             timeout must sit well above a normal multi-second chunk fetch:
//             timing out healthy transfers retries forever.)
// Reports completion time overhead versus the fault-free run, fault/retry
// counters, and the wasted wire bytes that still bill as provider egress.
#include "paper_common.hpp"

#include "storage/retry.hpp"

namespace {

using namespace cloudburst;

struct Policy {
  const char* name;
  storage::RetryPolicy retry;
};

middleware::RunResult run_knn(double fail_probability, const storage::RetryPolicy& retry,
                              std::uint64_t seed) {
  return apps::run_env(
      apps::Env::Hybrid5050, apps::PaperApp::Knn,
      [&](cluster::PlatformSpec& spec, middleware::RunOptions& options) {
        auto& fault = spec.sites[cluster::kCloudSite].store->fault;
        fault.fail_probability = fail_probability;
        fault.hang_probability = fail_probability / 4.0;
        fault.hang_seconds = 120.0;
        options.retry = retry;
        options.random_seed = seed;
      });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cloudburst;

  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);

  storage::RetryPolicy backoff;
  backoff.max_attempts = 3;
  backoff.backoff_base_seconds = 0.05;
  backoff.backoff_multiplier = 2.0;

  storage::RetryPolicy hedged = backoff;
  hedged.attempt_timeout_seconds = 60.0;
  hedged.hedge_delay_seconds = 5.0;

  const Policy policies[] = {
      {"none", storage::RetryPolicy{}}, {"backoff x3", backoff}, {"hedged", hedged}};

  const auto clean = run_knn(0.0, storage::RetryPolicy{}, args.seed);

  std::vector<double> fail_probs = {0.02, 0.05, 0.1, 0.2};
  if (args.quick) fail_probs = {0.05};

  AsciiTable table({"fail prob", "policy", "exec time", "overhead", "faults",
                    "retries", "hedge wins", "wasted MB"});
  table.add_row({"0%", "-", AsciiTable::num(clean.total_time, 2), "0.0%", "0", "0",
                 "0", "0.0"});
  table.add_separator();
  for (double p : fail_probs) {
    for (const Policy& policy : policies) {
      const auto result = run_knn(p, policy.retry, args.seed);
      const auto totals = result.totals();
      table.add_row({AsciiTable::pct(p, 0), policy.name,
                     AsciiTable::num(result.total_time, 2),
                     AsciiTable::pct(result.total_time / clean.total_time - 1.0, 1),
                     std::to_string(totals.store_faults),
                     std::to_string(totals.fetch_retries),
                     std::to_string(totals.hedges_won),
                     AsciiTable::num(
                         static_cast<double>(result.bytes_retried_total()) / 1e6, 1)});
    }
    table.add_separator();
  }
  std::printf("%s\n",
              table.render("Ablation — transient S3 faults x retry policy (knn "
                           "env-50/50; wasted bytes still bill as egress)")
                  .c_str());
  return 0;
}
