#include "chaos/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/rng.hpp"

namespace cloudburst::chaos {

namespace {

/// Substream lanes inside the plan seed — one per draw category so adding a
/// fault kind never shifts another kind's schedule.
enum PlanStream : std::uint64_t {
  kLinkStream = 1,
  kStoreStream = 2,
  kCrashStream = 3,
  kDrainStream = 4,
  kSpotStream = 5,
  kSiteStream = 6,
};

/// A random site other than `avoid` (uniform over the rest).
cluster::ClusterId pick_site(Rng& rng, std::uint32_t sites, cluster::ClusterId avoid) {
  const auto pick = static_cast<cluster::ClusterId>(
      rng.uniform_int(0, static_cast<std::int64_t>(sites) - 2));
  return pick >= avoid ? pick + 1 : pick;
}

char line_buf[192];

bool close_usd(double a, double b) {
  // Bills accumulate across many jobs; scale the tolerance to the amounts.
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-6 * scale;
}

}  // namespace

ChaosPlan random_plan(const RandomPlanOptions& opts) {
  if (opts.sites < 2) {
    throw std::invalid_argument("chaos::random_plan: need at least two sites");
  }
  if (opts.protected_site >= opts.sites) {
    throw std::invalid_argument("chaos::random_plan: protected_site out of range");
  }
  const double horizon = std::max(1.0, opts.horizon_seconds);
  const double max_window = std::max(1.0, opts.max_window_seconds);

  ChaosPlan plan;
  plan.events.reserve(opts.link_faults + opts.store_outages + opts.node_crashes +
                      opts.node_drains + opts.spot_reclaims + opts.site_outages);

  Rng link_rng = Rng::substream(opts.seed, kLinkStream);
  for (std::uint32_t i = 0; i < opts.link_faults; ++i) {
    ChaosEvent ev;
    ev.kind = ChaosEvent::Kind::LinkFault;
    ev.site_a = static_cast<cluster::ClusterId>(
        link_rng.uniform_int(0, static_cast<std::int64_t>(opts.sites) - 1));
    ev.site_b = pick_site(link_rng, opts.sites, ev.site_a);
    ev.at_seconds = link_rng.uniform(0.0, horizon);
    ev.duration_seconds = link_rng.uniform(1.0, max_window);
    // Half the faults are hard cuts, half residual-bandwidth brownouts.
    ev.factor = link_rng.bernoulli(0.5) ? 0.0 : link_rng.uniform(0.05, 0.5);
    plan.events.push_back(ev);
  }

  Rng store_rng = Rng::substream(opts.seed, kStoreStream);
  for (std::uint32_t i = 0; i < opts.store_outages; ++i) {
    ChaosEvent ev;
    ev.kind = ChaosEvent::Kind::StoreOutage;
    ev.site_a = pick_site(store_rng, opts.sites, opts.protected_site);
    ev.at_seconds = store_rng.uniform(0.0, horizon);
    ev.duration_seconds = store_rng.uniform(1.0, max_window);
    plan.events.push_back(ev);
  }

  auto node_event = [&](Rng& rng, ChaosEvent::Kind kind) {
    ChaosEvent ev;
    ev.kind = kind;
    // Node faults also avoid the protected site: it may be a single-node
    // cluster (the paper testbed's local side), whose only node validate_run
    // lets no node event name, and it is the cluster left to adopt the work
    // of clusters that lose every slave.
    ev.site_a = pick_site(rng, opts.sites, opts.protected_site);
    ev.node_index = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(std::max(1u, opts.nodes_per_site)) - 1));
    ev.at_seconds = rng.uniform(0.0, horizon);
    return ev;
  };

  Rng crash_rng = Rng::substream(opts.seed, kCrashStream);
  for (std::uint32_t i = 0; i < opts.node_crashes; ++i) {
    plan.events.push_back(node_event(crash_rng, ChaosEvent::Kind::NodeCrash));
  }
  Rng drain_rng = Rng::substream(opts.seed, kDrainStream);
  for (std::uint32_t i = 0; i < opts.node_drains; ++i) {
    plan.events.push_back(node_event(drain_rng, ChaosEvent::Kind::NodeDrain));
  }
  Rng spot_rng = Rng::substream(opts.seed, kSpotStream);
  for (std::uint32_t i = 0; i < opts.spot_reclaims; ++i) {
    ChaosEvent ev = node_event(spot_rng, ChaosEvent::Kind::SpotReclaim);
    ev.notice_seconds = spot_rng.uniform(10.0, 120.0);
    plan.events.push_back(ev);
  }

  Rng site_rng = Rng::substream(opts.seed, kSiteStream);
  for (std::uint32_t i = 0; i < opts.site_outages; ++i) {
    ChaosEvent ev;
    ev.kind = ChaosEvent::Kind::SiteOutage;
    ev.site_a = pick_site(site_rng, opts.sites, opts.protected_site);
    ev.at_seconds = site_rng.uniform(0.0, horizon);
    ev.duration_seconds = site_rng.uniform(1.0, max_window);
    plan.events.push_back(ev);
  }

  // Stable time order makes plans human-readable; scheduling does not
  // depend on it, but the auditor's failure messages do.
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at_seconds < b.at_seconds;
                   });
  return plan;
}

AuditResult audit_exactly_once(const std::vector<std::uint32_t>& executions) {
  for (std::size_t c = 0; c < executions.size(); ++c) {
    if (executions[c] == 0) {
      std::snprintf(line_buf, sizeof(line_buf),
                    "chunk %llu of completed work was lost (executed 0 times)",
                    static_cast<unsigned long long>(c));
      return AuditResult{false, line_buf};
    }
    if (executions[c] > 1) {
      std::snprintf(line_buf, sizeof(line_buf),
                    "chunk %llu executed %u times (re-granted work double-counted)",
                    static_cast<unsigned long long>(c), executions[c]);
      return AuditResult{false, line_buf};
    }
  }
  return AuditResult{};
}

AuditResult audit_bills(const workload::WorkloadResult& result) {
  cost::CostReport sum;
  for (const auto& job : result.jobs) {
    if (job.rejected && job.attributed_cost.total_usd() != 0.0) {
      std::snprintf(line_buf, sizeof(line_buf), "rejected job %u billed %.6f USD",
                    job.id, job.attributed_cost.total_usd());
      return AuditResult{false, line_buf};
    }
    sum += job.attributed_cost;
  }
  const cost::CostReport& p = result.platform_cost;
  if (sum.get_requests != p.get_requests) {
    std::snprintf(line_buf, sizeof(line_buf),
                  "GET requests: tenants sum %llu vs platform %llu",
                  static_cast<unsigned long long>(sum.get_requests),
                  static_cast<unsigned long long>(p.get_requests));
    return AuditResult{false, line_buf};
  }
  struct Component {
    const char* name;
    double tenants;
    double platform;
  } components[] = {
      {"instance_usd", sum.instance_usd, p.instance_usd},
      {"requests_usd", sum.requests_usd, p.requests_usd},
      {"transfer_usd", sum.transfer_usd, p.transfer_usd},
      {"storage_usd", sum.storage_usd, p.storage_usd},
      {"total_usd", sum.total_usd(), p.total_usd()},
  };
  for (const auto& c : components) {
    if (!close_usd(c.tenants, c.platform)) {
      std::snprintf(line_buf, sizeof(line_buf),
                    "bill component %s: tenants sum %.9f vs platform %.9f", c.name,
                    c.tenants, c.platform);
      return AuditResult{false, line_buf};
    }
  }
  return AuditResult{};
}

AuditResult audit_coverage(const replica::ReplicaSet& replicas,
                           const storage::DataLayout& layout) {
  if (!replicas.built()) {
    return AuditResult{false, "replica set never attached to a platform"};
  }
  const auto stores = static_cast<storage::StoreId>(replicas.store_count());
  for (const auto& chunk : layout.chunks()) {
    unsigned live = 0;
    for (storage::StoreId s = 0; s < stores; ++s) {
      if (replicas.is_live(chunk.id, s)) ++live;
    }
    const unsigned target = replicas.target_copies(chunk.id);
    if (live < target) {
      std::snprintf(line_buf, sizeof(line_buf),
                    "chunk %u holds %u live copies, target %u (repair incomplete)",
                    chunk.id, live, target);
      return AuditResult{false, line_buf};
    }
  }
  return AuditResult{};
}

AuditResult audit_replay(const std::string& trace_a, const std::string& trace_b) {
  if (trace_a == trace_b) return AuditResult{};
  // Find the first diverging line for the failure report.
  std::size_t pos = 0;
  std::size_t line = 1;
  const std::size_t n = std::min(trace_a.size(), trace_b.size());
  while (pos < n && trace_a[pos] == trace_b[pos]) {
    if (trace_a[pos] == '\n') ++line;
    ++pos;
  }
  std::snprintf(line_buf, sizeof(line_buf),
                "replay diverged at line %llu (byte %llu; sizes %llu vs %llu)",
                static_cast<unsigned long long>(line),
                static_cast<unsigned long long>(pos),
                static_cast<unsigned long long>(trace_a.size()),
                static_cast<unsigned long long>(trace_b.size()));
  return AuditResult{false, line_buf};
}

}  // namespace cloudburst::chaos
