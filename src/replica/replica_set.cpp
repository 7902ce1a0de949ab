#include "replica/replica_set.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace cloudburst::replica {

namespace {

/// Reference transfer the WAN cost matrix prices: one typical chunk's worth
/// of bytes. Only the *ranking* of routes matters, so any size in the right
/// ballpark works; 128 MB matches the paper's chunk scale.
constexpr double kRefBytes = 128.0 * 1024.0 * 1024.0;

/// Score penalties, in seconds-equivalent of the reference transfer.
///
/// kFailWeight prices one unit of failure probability: the expected extra
/// latency of a fault is roughly one retry backoff plus a slice of the
/// attempt-timeout risk — seconds, not minutes. Keeping the weight honest
/// matters: a 5 %-faulty store should only lose to a replica whose WAN path
/// costs less than the expected fault latency (0.05 × 8 = 0.4 s), not drive
/// every reader onto a congested cross-site link that is slower in
/// expectation. Stores *proven* bad are handled by the suspect mechanism,
/// whose penalty must dwarf any real transfer time.
constexpr double kFailWeight = 8.0;       ///< scaled by failure probability
constexpr double kSuspectPenalty = 1e6;

}  // namespace

const char* to_string(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::SameSite: return "same-site";
    case PlacementPolicy::CrossSite: return "cross-site";
    case PlacementPolicy::HotChunk: return "hot-chunk";
  }
  return "?";
}

const char* to_string(HeatSource source) {
  switch (source) {
    case HeatSource::CacheHits: return "cache-hits";
    case HeatSource::FetchCounts: return "fetch-counts";
  }
  return "?";
}

ReplicaSet::ReplicaSet(ReplicationConfig config) : config_(config) {
  if (config_.replication_factor == 0) {
    throw std::invalid_argument("replication_factor must be >= 1");
  }
  if (config_.repair_interval_seconds <= 0.0) {
    throw std::invalid_argument("repair_interval_seconds must be > 0");
  }
}

void ReplicaSet::attach(const storage::DataLayout& layout,
                        const cluster::Platform& platform) {
  if (!built_) {
    build(layout, platform);
    built_ = true;
    platform_ = &platform;
    return;
  }
  if (layout.chunks().size() != chunks_.size() ||
      platform.store_count() != store_sites_.size()) {
    throw std::invalid_argument(
        "ReplicaSet::attach: dataset/platform geometry changed under a built set");
  }
  platform_ = &platform;
}

void ReplicaSet::build(const storage::DataLayout& layout,
                       const cluster::Platform& platform) {
  const std::size_t stores = platform.store_count();
  if (stores == 0) {
    throw std::invalid_argument("ReplicaSet needs a platform with stores");
  }
  store_sites_.resize(stores);
  suspect_until_.assign(stores, 0.0);
  routed_bytes_.assign(stores, 0);
  for (storage::StoreId s = 0; s < stores; ++s) {
    store_sites_[s] = platform.owner_of_store(s);
  }

  const auto& spec = platform.spec();
  const std::size_t sites = spec.sites.size();
  wan_cost_.assign(sites, std::vector<double>(sites, 0.0));
  for (cluster::ClusterId a = 0; a < sites; ++a) {
    for (cluster::ClusterId b = 0; b < sites; ++b) {
      wan_cost_[a][b] = pair_cost_seconds(spec, a, b);
    }
  }

  const unsigned k = std::min<unsigned>(config_.replication_factor,
                                        static_cast<unsigned>(stores));
  chunks_.resize(layout.chunks().size());
  chunk_bytes_.resize(layout.chunks().size());
  for (const storage::ChunkInfo& info : layout.chunks()) {
    ChunkState& st = chunks_[info.id];
    chunk_bytes_[info.id] = info.bytes;
    const storage::StoreId primary = layout.store_of(info.id);
    st.stores = {primary};
    st.live = {true};
    if (config_.placement == PlacementPolicy::HotChunk) continue;  // earn copies later
    for (unsigned j = 0; j + 1 < k; ++j) {
      storage::StoreId dst = storage::kInvalidStore;
      if (config_.placement == PlacementPolicy::CrossSite) {
        dst = spread_store(info.id, primary, j);
      } else {  // SameSite: nearest stores to the primary's site, cost order
        double best = std::numeric_limits<double>::max();
        for (storage::StoreId s = 0; s < stores; ++s) {
          if (std::find(st.stores.begin(), st.stores.end(), s) != st.stores.end()) {
            continue;
          }
          const double c = wan_cost_[store_sites_[primary]][store_sites_[s]];
          if (c < best) {
            best = c;
            dst = s;
          }
        }
      }
      if (dst == storage::kInvalidStore) break;
      st.stores.push_back(dst);
      st.live.push_back(true);
      initial_extras_.emplace_back(info.id, dst);
      ++created_;
    }
  }
}

double ReplicaSet::pair_cost_seconds(const cluster::PlatformSpec& spec,
                                     cluster::ClusterId a, cluster::ClusterId b) const {
  if (a == b) return 0.0;
  double bandwidth = spec.wan_bandwidth;
  des::SimDuration latency = spec.wan_latency;
  for (const cluster::WanEdge& e : spec.wan_overrides) {
    if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) {
      bandwidth = e.bandwidth;
      latency = e.latency;
      break;
    }
  }
  double cost = des::to_seconds(latency);
  if (bandwidth > 0.0) cost += kRefBytes / bandwidth;
  return cost;
}

storage::StoreId ReplicaSet::spread_store(storage::ChunkId chunk,
                                          storage::StoreId primary,
                                          unsigned copy_index) const {
  const std::size_t stores = store_sites_.size();
  if (stores < 2) return storage::kInvalidStore;
  // Deterministic spread: copy j of chunk c lands 1 + ((c + j) mod (S-1))
  // stores past the primary, so consecutive chunks fan their copies across
  // all other stores and a chunk's own copies stay distinct (j < S-1).
  const std::size_t offset = 1 + ((chunk + copy_index) % (stores - 1));
  return static_cast<storage::StoreId>((primary + offset) % stores);
}

double ReplicaSet::store_score(storage::StoreId store, cluster::ClusterId reader_site,
                               double now) const {
  double score = wan_cost_[reader_site][store_sites_[store]];
  if (suspect_until_[store] > now) score += kSuspectPenalty;
  const auto& site_spec = platform_->spec().sites.at(store_sites_[store]);
  if (site_spec.store.has_value()) {
    const storage::FaultProfile& fault = site_spec.store->fault;
    double p_fail = fault.fail_probability;
    for (const auto& w : fault.throttles) {
      // Window membership uses the store's own convention: inclusive begin,
      // exclusive end (see storage/fault.hpp).
      if (now >= w.begin_seconds && now < w.end_seconds) {
        p_fail = std::min(1.0, p_fail + w.fail_probability);
        if (w.bandwidth_factor < 1.0) {
          // A throttled stream takes 1/factor as long; charge the slowdown
          // on the reference transfer.
          score += (1.0 / w.bandwidth_factor - 1.0) *
                   wan_cost_[reader_site][store_sites_[store]];
        }
      }
    }
    score += p_fail * kFailWeight;
  }
  return score;
}

std::uint64_t ReplicaSet::route_hash(storage::ChunkId chunk,
                                     storage::StoreId store) const {
  // splitmix64 over (seed, chunk, store): a stable per-pair coin that keeps
  // residual ties deterministic across runs without favoring low store ids.
  std::uint64_t x = config_.route_seed ^ (static_cast<std::uint64_t>(chunk) << 32) ^
                    (static_cast<std::uint64_t>(store) + 1);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

storage::StoreId ReplicaSet::resolve(storage::ChunkId chunk,
                                     cluster::ClusterId reader_site, double now) const {
  const ChunkState& st = chunks_.at(chunk);
  storage::StoreId best = st.stores.front();  // primary fallback
  double best_score = std::numeric_limits<double>::max();
  bool any_live = false;
  for (std::size_t i = 0; i < st.stores.size(); ++i) {
    if (!st.live[i]) continue;
    const storage::StoreId cand = st.stores[i];
    const double score = store_score(cand, reader_site, now);
    bool take = !any_live || score < best_score;
    if (!take && score == best_score && cand != best) {
      // Equal-cost copies share load: least outstanding routed bytes first,
      // then a seeded hash so a fully-idle tie still alternates per chunk.
      const std::uint64_t cand_load = routed_bytes_[cand];
      const std::uint64_t best_load = routed_bytes_[best];
      take = cand_load < best_load ||
             (cand_load == best_load &&
              route_hash(chunk, cand) < route_hash(chunk, best));
    }
    if (take) {
      best_score = score;
      best = cand;
    }
    any_live = true;
  }
  if (!any_live) return st.stores.front();
  routed_bytes_[best] += chunk_bytes_.at(chunk);
  return best;
}

void ReplicaSet::settle_route(storage::ChunkId chunk, storage::StoreId store) {
  if (store >= routed_bytes_.size()) return;
  const std::uint64_t bytes = chunk < chunk_bytes_.size() ? chunk_bytes_[chunk] : 0;
  routed_bytes_[store] -= std::min(routed_bytes_[store], bytes);
}

double ReplicaSet::route_cost(storage::ChunkId chunk, cluster::ClusterId reader_site,
                              double now) const {
  const ChunkState& st = chunks_.at(chunk);
  double best = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < st.stores.size(); ++i) {
    if (!st.live[i]) continue;
    best = std::min(best, store_score(st.stores[i], reader_site, now));
  }
  if (best == std::numeric_limits<double>::max()) {
    best = store_score(st.stores.front(), reader_site, now);
  }
  return best;
}

bool ReplicaSet::is_live(storage::ChunkId chunk, storage::StoreId store) const {
  const ChunkState& st = chunks_.at(chunk);
  for (std::size_t i = 0; i < st.stores.size(); ++i) {
    if (st.stores[i] == store) return st.live[i];
  }
  return false;
}

bool ReplicaSet::mark_lost(storage::ChunkId chunk, storage::StoreId store, double now) {
  settle_route(chunk, store);  // the routed fetch ended (in failure)
  mark_store_suspect(store, now);
  ChunkState& st = chunks_.at(chunk);
  for (std::size_t i = 0; i < st.stores.size(); ++i) {
    if (st.stores[i] != store) continue;
    if (!st.live[i]) return false;
    st.live[i] = false;
    ++lost_;
    return true;
  }
  return false;
}

void ReplicaSet::note_fetch_ok(storage::ChunkId chunk, storage::StoreId store) {
  settle_route(chunk, store);
  ChunkState& st = chunks_.at(chunk);
  for (std::size_t i = 0; i < st.stores.size(); ++i) {
    if (st.stores[i] == store && !st.live[i]) {
      // The fault was transient after all — the copy is demonstrably there.
      st.live[i] = true;
      return;
    }
  }
}

void ReplicaSet::mark_store_suspect(storage::StoreId store, double now) {
  if (store >= suspect_until_.size()) return;
  suspect_until_[store] =
      std::max(suspect_until_[store], now + config_.suspect_seconds);
}

void ReplicaSet::mark_site_suspect(cluster::ClusterId site, double now) {
  if (platform_ == nullptr) return;
  const storage::StoreId store = platform_->store_of_cluster(site);
  if (store == storage::kInvalidStore) return;
  mark_store_suspect(store, now);
}

void ReplicaSet::bump_heat(ChunkState& st) {
  if (st.hot) return;
  if (++st.hits >= config_.hot_threshold) st.hot = true;
}

void ReplicaSet::record_hit(storage::ChunkId chunk) {
  if (config_.placement != PlacementPolicy::HotChunk ||
      heat_source_ != HeatSource::CacheHits) {
    return;
  }
  bump_heat(chunks_.at(chunk));
}

void ReplicaSet::record_fetch(storage::ChunkId chunk) {
  if (config_.placement != PlacementPolicy::HotChunk ||
      heat_source_ != HeatSource::FetchCounts) {
    return;
  }
  bump_heat(chunks_.at(chunk));
}

unsigned ReplicaSet::target_copies(storage::ChunkId chunk) const {
  const unsigned k = std::min<unsigned>(config_.replication_factor,
                                        static_cast<unsigned>(store_sites_.size()));
  if (config_.placement == PlacementPolicy::HotChunk && !chunks_.at(chunk).hot) {
    return 1;
  }
  return k;
}

unsigned ReplicaSet::live_count(const ChunkState& state) const {
  return static_cast<unsigned>(
      std::count(state.live.begin(), state.live.end(), true));
}

storage::StoreId ReplicaSet::pick_repair_destination(const ChunkState& state,
                                                     storage::ChunkId chunk,
                                                     double now) const {
  // Eligible: any store without a live copy. Prefer non-suspect stores; among
  // those, SameSite keeps copies near the primary while the spread policies
  // walk the deterministic CrossSite order so repaired copies land where the
  // initial placement would have put them.
  const storage::StoreId primary = state.stores.front();
  auto eligible = [&](storage::StoreId s) {
    for (std::size_t i = 0; i < state.stores.size(); ++i) {
      if (state.stores[i] == s && state.live[i]) return false;
    }
    return true;
  };
  storage::StoreId best = storage::kInvalidStore;
  double best_rank = std::numeric_limits<double>::max();
  for (std::size_t j = 0; j + 1 < store_sites_.size(); ++j) {
    storage::StoreId s;
    if (config_.placement == PlacementPolicy::SameSite) {
      s = static_cast<storage::StoreId>(j >= primary ? j + 1 : j);  // all but primary
    } else {
      s = spread_store(chunk, primary, static_cast<unsigned>(j));
    }
    if (!eligible(s)) continue;
    double rank = config_.placement == PlacementPolicy::SameSite
                      ? wan_cost_[store_sites_[primary]][store_sites_[s]]
                      : static_cast<double>(j);
    if (suspect_until_[s] > now) rank += kSuspectPenalty;
    if (rank < best_rank) {
      best_rank = rank;
      best = s;
    }
  }
  if (best == storage::kInvalidStore && eligible(primary) &&
      suspect_until_[primary] <= now) {
    best = primary;  // re-create a lost primary copy from a surviving replica
  }
  return best;
}

std::vector<ReplicaSet::RepairTask> ReplicaSet::plan_repairs(std::size_t max_tasks,
                                                             double now) {
  std::vector<RepairTask> out;
  if (max_tasks == 0) return out;
  for (storage::ChunkId c = 0; c < chunks_.size(); ++c) {
    ChunkState& st = chunks_[c];
    if (st.repair_pending) continue;
    const unsigned live = live_count(st);
    if (live == 0) continue;  // nothing to copy from; reads fall back to the primary
    if (live >= target_copies(c)) continue;
    // Source: the healthiest live copy (suspect stores only as a last resort).
    storage::StoreId src = storage::kInvalidStore;
    double src_rank = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < st.stores.size(); ++i) {
      if (!st.live[i]) continue;
      const double rank =
          (suspect_until_[st.stores[i]] > now ? kSuspectPenalty : 0.0) + st.stores[i];
      if (rank < src_rank) {
        src_rank = rank;
        src = st.stores[i];
      }
    }
    const storage::StoreId dst = pick_repair_destination(st, c, now);
    if (src == storage::kInvalidStore || dst == storage::kInvalidStore) continue;
    st.repair_pending = true;
    out.push_back(RepairTask{c, src, dst});
    if (out.size() >= max_tasks) break;
  }
  return out;
}

void ReplicaSet::repair_done(const RepairTask& task, bool ok, double now) {
  ChunkState& st = chunks_.at(task.chunk);
  st.repair_pending = false;
  if (!ok) {
    // The source failed to deliver; treat it like any other failed GET so the
    // next planning pass reaches for a different source.
    mark_store_suspect(task.src, now);
    return;
  }
  ++repaired_;
  for (std::size_t i = 0; i < st.stores.size(); ++i) {
    if (st.stores[i] == task.dst) {
      st.live[i] = true;
      return;
    }
  }
  st.stores.push_back(task.dst);
  st.live.push_back(true);
}

std::vector<std::uint64_t> ReplicaSet::extra_bytes_per_store() const {
  std::vector<std::uint64_t> out(store_sites_.size(), 0);
  for (storage::ChunkId c = 0; c < chunks_.size(); ++c) {
    const ChunkState& st = chunks_[c];
    for (std::size_t i = 1; i < st.stores.size(); ++i) {  // index 0 = primary
      if (st.live[i]) out[st.stores[i]] += chunk_bytes_[c];
    }
  }
  return out;
}

}  // namespace cloudburst::replica
