// Per-tenant store I/O QoS: weighted-fair arbitration + bandwidth
// reservations at every store's access link.
//
// The paper's stores serve whoever asks; once the platform multiplexes
// multi-tenant workloads over shared storage::Store instances (disks and
// object stores alike), one tenant's scan can starve another's interactive
// job at the store front end.
// A StoreQos interposes an admission arbiter in front of each store:
//
//  * every store fetch is submitted to the arbiter before the wire transfer
//    starts; the arbiter releases requests one at a time per store, pacing
//    the release stream at the store's (slightly derated) access-link
//    capacity, so under contention requests queue *at the arbiter* instead
//    of piling onto the wire;
//  * release order is weighted-fair (start-time fair queueing over virtual
//    finish tags of bytes/weight), so concurrent backlogged tenants split
//    the link in proportion to their share weights, and a tenant that goes
//    idle donates its share to the others (work conservation);
//  * reservation admission: "tenant A gets >= X bytes/sec on store S during
//    [t1, t2)" is granted or rejected at reserve() time against the link
//    capacity; a granted reservation gets its own release lane paced at the
//    reserved rate, and its tokens are carved out of the fair pool for the
//    whole window;
//  * per-(tenant, store) accounting: requests, released bytes, wait time,
//    throttle count, and the active span that yields achieved bandwidth —
//    plus per-tenant cache hit/miss counters fed by the middleware.
//
// The object is caller-owned (like CacheFleet / ReplicaSet) and shared
// across a workload's jobs; attach() binds it to a built platform. Nothing
// here is reachable unless RunOptions::qos points at an instance, so default
// runs stay byte-identical to the paper model.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "des/simulator.hpp"
#include "storage/data_layout.hpp"
#include "trace/trace.hpp"

namespace cloudburst::cluster {
class Platform;
}

namespace cloudburst::qos {

/// Dense tenant identity inside one StoreQos; id 0 is always the "system"
/// tenant that background traffic (replica repair) bills to.
using TenantId = std::uint32_t;
inline constexpr TenantId kSystemTenant = 0;
inline constexpr const char* kSystemTenantName = "system";

struct QosConfig {
  /// Relative share weight per tenant name; tenants not listed get
  /// default_weight. All configured weights must be > 0 — a config whose
  /// weights are all zero is rejected at construction (it would make every
  /// fair rate 0/0).
  std::map<std::string, double> tenant_weights;
  double default_weight = 1.0;
  /// Weight of the "system" tenant (replica repair transfers).
  double system_weight = 1.0;

  /// Fraction of the store's front bandwidth the fair pool paces at. Keeping
  /// the paced link slightly under-subscribed makes contention queue at the
  /// arbiter (where shares are enforced) instead of on the wire (where
  /// max-min flow sharing would override them).
  double pacing_factor = 0.9;

  /// Floor on the fair pool's pacing rate (bytes/sec) after reservations are
  /// carved out, so admission never stalls entirely.
  double min_fair_rate = 1e3;
};

/// One granted reservation: a bandwidth floor on a store during a window.
struct Reservation {
  TenantId tenant = 0;
  storage::StoreId store = 0;
  double bytes_per_sec = 0.0;
  double begin_seconds = 0.0;
  double end_seconds = 0.0;
};

/// Per-(tenant, store) I/O accounting.
struct TenantStoreStats {
  std::uint64_t requests = 0;   ///< submits (including pass-through)
  std::uint64_t bytes = 0;      ///< bytes released through the arbiter
  std::uint64_t throttled = 0;  ///< releases that waited in a queue
  double wait_seconds = 0.0;    ///< total submit-to-release wait
  double first_active_seconds = -1.0;  ///< first release (achieved-bw span)
  double last_active_seconds = 0.0;    ///< end of the last pacing slot

  /// Released bytes over the tenant's active span on this store.
  double achieved_bytes_per_sec() const {
    const double span = last_active_seconds - first_active_seconds;
    return (first_active_seconds >= 0.0 && span > 0.0)
               ? static_cast<double>(bytes) / span
               : 0.0;
  }
};

/// Per-tenant rollup surfaced in WorkloadResult.
struct TenantQosReport {
  bool active = false;  ///< tenant is registered with a StoreQos
  std::uint64_t store_requests = 0;
  std::uint64_t bytes = 0;
  std::uint64_t throttled = 0;
  double wait_seconds = 0.0;
  double achieved_bytes_per_sec = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

class StoreQos {
 public:
  /// Validates the config: every weight (explicit, default, system) must be
  /// > 0; throws std::invalid_argument otherwise.
  explicit StoreQos(QosConfig config = {});

  const QosConfig& config() const { return config_; }

  /// Dense id for `name`, registering it on first use ("system" is id 0).
  TenantId tenant_id(const std::string& name);
  const std::string& tenant_name(TenantId id) const { return tenants_.at(id); }
  std::size_t tenant_count() const { return tenants_.size(); }
  double weight_of(TenantId id) const;

  /// Bind to a built platform: per-store access-link capacity comes from
  /// each site's StoreSpec::front_bandwidth. Re-attaching (iterative passes,
  /// workload jobs sharing the object) must present the same store count;
  /// scheduler state resets, reservations and stats survive.
  void attach(cluster::Platform& platform);
  /// Test seam: bind directly to a simulator and explicit capacities
  /// (bytes/sec; <= 0 = pass-through store).
  void bind(des::Simulator& sim, std::vector<double> store_capacities);
  bool attached() const { return sim_ != nullptr; }

  /// Optional event sink for ReservationGranted / ReservationRejected.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  // --- reservations ----------------------------------------------------------

  /// Admit "tenant gets >= bytes_per_sec on store during [begin, end)".
  /// Granted iff the store has a known capacity and, at every instant, the
  /// overlapping reserved rates (this one included) fit under the paced link
  /// minus the fair-pool floor. Returns false (and traces
  /// ReservationRejected) on over-commit; throws std::logic_error before
  /// attach()/bind() and std::invalid_argument on malformed arguments.
  bool reserve(const std::string& tenant, storage::StoreId store,
               double bytes_per_sec, double begin_seconds, double end_seconds);

  const std::vector<Reservation>& reservations() const { return reservations_; }
  std::uint32_t reservations_rejected() const { return rejected_; }

  /// Re-check every granted reservation against `platform`'s store
  /// capacities (run_distributed's up-front validation); throws
  /// std::invalid_argument when a reservation no longer fits.
  void validate_against(const cluster::Platform& platform) const;

  // --- arbitration -----------------------------------------------------------

  /// Fires when the request wins link share; `waited_seconds` is how long it
  /// queued (0 for immediate release).
  using Release = std::function<void(double waited_seconds)>;

  /// Gate a `bytes`-sized store access by `tenant` against `store`. Releases
  /// synchronously when the store is a pass-through (unknown capacity) or
  /// its arbiter is idle; otherwise the request queues in the tenant's
  /// reservation lane (if one is active now) or the weighted-fair queue.
  void submit(storage::StoreId store, TenantId tenant, std::uint64_t bytes,
              Release release);

  // --- cache accounting ------------------------------------------------------

  void note_cache_hit(TenantId tenant);
  void note_cache_miss(TenantId tenant);

  /// Cache capacity split for the explicitly-weighted tenants: each gets
  /// floor(capacity * weight / sum of configured weights). Tenants without a
  /// configured weight share the cache unbudgeted. Empty when the config
  /// names no tenants.
  std::map<TenantId, std::uint64_t> cache_budgets(std::uint64_t capacity_bytes);

  // --- accounting ------------------------------------------------------------

  /// Stats of `tenant` on `store`; nullptr when that pair never submitted.
  const TenantStoreStats* store_stats(TenantId tenant, storage::StoreId store) const;
  /// Rollup over all stores (plus the tenant's cache counters).
  TenantQosReport report(TenantId tenant) const;
  TenantQosReport report(const std::string& tenant) const;

  double store_capacity(storage::StoreId store) const;

 private:
  struct Pending {
    TenantId tenant = 0;
    std::uint64_t bytes = 0;
    double submit_seconds = 0.0;
    double start_tag = 0.0;
    double finish_tag = 0.0;
    std::uint64_t seq = 0;
    Release release;
  };
  struct LaneState {
    std::size_t reservation = 0;  ///< index into reservations_
    bool busy = false;
    std::deque<Pending> queue;
  };
  struct StoreState {
    double capacity = 0.0;
    bool busy = false;
    double vtime = 0.0;
    std::vector<Pending> heap;  ///< min-heap by (finish_tag, seq)
    std::unordered_map<TenantId, double> last_finish;
    std::vector<LaneState> lanes;
  };

  double now_seconds() const;
  /// Paced fair-pool rate right now: pacing_factor * capacity minus the
  /// rates of reservations whose window covers `now`, floored at
  /// min_fair_rate.
  double fair_rate(const StoreState& st, double now) const;
  int active_lane(const StoreState& st, TenantId tenant, double now) const;
  void pump_fair(storage::StoreId store);
  void pump_lane(storage::StoreId store, std::size_t lane);
  void record_release(TenantId tenant, storage::StoreId store, const Pending& p,
                      double now, double slot_seconds);
  TenantStoreStats& stats_slot(TenantId tenant, storage::StoreId store);
  /// Highest instantaneous reserved rate on `store` over [begin, end) with
  /// `extra` added to the overlap.
  double max_reserved_overlap(storage::StoreId store, double begin, double end,
                              double extra) const;
  void rebuild_lanes();
  void trace_reservation(bool granted, storage::StoreId store, double bytes_per_sec);

  QosConfig config_;
  des::Simulator* sim_ = nullptr;
  trace::Tracer* tracer_ = nullptr;

  std::vector<std::string> tenants_;  ///< index = TenantId; [0] = "system"
  std::unordered_map<std::string, TenantId> tenant_ids_;

  std::vector<StoreState> stores_;
  std::vector<Reservation> reservations_;
  std::uint32_t rejected_ = 0;
  std::uint64_t seq_ = 0;

  /// per_tenant_[tenant][store] -> stats; cache counters are per tenant.
  std::vector<std::map<storage::StoreId, TenantStoreStats>> per_tenant_;
  struct CacheCounters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  std::vector<CacheCounters> cache_counters_;
};

}  // namespace cloudburst::qos
