#include "middleware/slave_node.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace cloudburst::middleware {

SlaveNode::SlaveNode(RunContext& ctx, const cluster::NodeHandle& node,
                     net::EndpointId master, std::size_t stat_index, std::uint32_t rank,
                     std::shared_ptr<const std::vector<net::EndpointId>> peers)
    : ctx_(ctx), node_(node), master_(master), rank_(rank), stat_index_(stat_index),
      peers_(std::move(peers)) {}

api::RobjPtr& SlaveNode::robj() {
  if (!robj_ && ctx_.options.task) robj_ = ctx_.options.task->create_robj();
  return robj_;
}

std::uint32_t SlaveNode::expected_children() const {
  // Binomial tree over ranks [0, n): rank r's children are r + 2^k for every
  // k with 2^k below r's lowest set bit (rank 0 spans the whole tree).
  const auto n = static_cast<std::uint32_t>(peers_->size());
  std::uint32_t count = 0;
  for (std::uint32_t bit = 1; bit < n; bit <<= 1) {
    if (rank_ & bit) break;
    if (rank_ + bit < n) ++count;
  }
  return count;
}

std::uint32_t SlaveNode::parent_rank() const {
  // Parent clears the lowest set bit; rank 0 has no slave parent.
  return rank_ & (rank_ - 1);
}

void SlaveNode::start() {
  idle_since_ = ctx_.now_seconds();
  top_up_requests();
}

void SlaveNode::top_up_requests() {
  if (draining_) return;  // drain notice: claim no new pool chunks
  const unsigned depth = std::max(1u, ctx_.options.pipeline_depth);
  while (!no_more_ && active_jobs_ + outstanding_requests_ < depth) {
    ++outstanding_requests_;
    Message msg;
    msg.type = MsgType::SlaveJobRequest;
    ctx_.send(node_.endpoint, master_, kControlMessageBytes, std::move(msg));
  }
}

void SlaveNode::handle(net::EndpointId from, Message msg) {
  (void)from;
  if (!alive_) return;  // crashed: silently drop everything
  switch (msg.type) {
    case MsgType::AssignJob:
      // Pushed recovery assignments arrive without a matching request.
      if (outstanding_requests_ > 0) --outstanding_requests_;
      if (draining_) {
        // Crossed the drain notice in flight: hand the chunk straight back so
        // the master re-pools it for a node that will actually run it.
        Message back;
        back.type = MsgType::ChunkReturned;
        back.chunk = msg.chunk;
        ctx_.send(node_.endpoint, master_, kControlMessageBytes, std::move(back));
        maybe_vacate();
        break;
      }
      on_assigned(msg.chunk, msg.store);
      break;
    case MsgType::NoMoreJobs:
      if (outstanding_requests_ > 0) --outstanding_requests_;
      no_more_ = true;
      if (ctx_.options.reduction_tree) maybe_finish_tree();
      maybe_vacate();
      break;
    case MsgType::SlaveRobj:
      on_child_robj(std::move(msg));
      break;
    case MsgType::RobjRequest:
      // Direct mode: ship the current robj (echoing the request's round id);
      // what follows goes into a fresh delta, so checkpoint bookkeeping stays
      // exact.
      send_robj(master_, msg.want);
      break;
    default:
      throw std::logic_error("SlaveNode: unexpected message type");
  }
}

void SlaveNode::on_assigned(storage::ChunkId chunk, storage::StoreId store) {
  if (active_jobs_ == 0 && !processing_) {
    // Leaving idle: account the time spent waiting for the assignment.
    stats().wait += ctx_.now_seconds() - idle_since_;
  }
  ++active_jobs_;
  if (store != storage::kInvalidStore) assigned_store_[chunk] = store;
  top_up_requests();
  ctx_.trace(trace::EventKind::JobAssigned, node_.name, chunk);
  fetch_start_[chunk] = ctx_.now_seconds();
  ctx_.trace(trace::EventKind::FetchStart, node_.name, chunk, fetch_store(chunk));
  begin_fetch(chunk);
}

storage::StoreId SlaveNode::fetch_store(storage::ChunkId chunk) const {
  if (const auto it = assigned_store_.find(chunk); it != assigned_store_.end()) {
    return it->second;
  }
  return ctx_.layout.store_of(chunk);
}

void SlaveNode::reassign_store(storage::ChunkId chunk, storage::StoreId from,
                               storage::StoreId to) {
  assigned_store_[chunk] = to;
  ctx_.book_read(node_.cluster, chunk, from, -1);
  ctx_.book_read(node_.cluster, chunk, to, +1);
}

void SlaveNode::begin_fetch(storage::ChunkId chunk) {
  const storage::StoreId store_id = fetch_store(chunk);

  if (cache::ChunkCache* cache = ctx_.site_cache(node_.cluster, store_id)) {
    cache::Prefetcher* pf = ctx_.prefetcher(node_.cluster);
    if (cache->hit(chunk)) {
      // Hit: the (compressed) bytes are on the site's scratch disk — pay the
      // local read model, skip the store entirely (no GET, no WAN flow).
      credit_cache_hit(chunk, store_id);
      const cache::CacheConfig& cfg = ctx_.options.cache->config();
      const double delay =
          cfg.hit_latency_seconds +
          static_cast<double>(ctx_.wire_chunk(chunk).bytes) / cfg.hit_bandwidth;
      ctx_.sim().schedule(des::from_seconds(delay), [this, chunk] {
        if (alive_) on_fetched(chunk);
      });
      return;
    }
    if (pf && pf->in_flight(chunk)) {
      // The prefetcher already has this chunk's GET in the air: join it
      // instead of fetching the same bytes twice. The hit is credited only
      // when the transfer actually delivers — a permanently failed prefetch
      // falls back to this slave's own (retrying) fetch.
      pf->wait_for(chunk, node_.endpoint, [this, chunk, store_id](bool ok) {
        if (!alive_) return;
        if (!ok) {
          begin_fetch(chunk);
          return;
        }
        credit_cache_hit(chunk, store_id);
        on_fetched(chunk);
      });
      return;
    }
    // Miss: fetch from the store and admit the chunk on arrival.
    ++ctx_.recorder.sites[node_.cluster].cache_misses;
    ctx_.trace(trace::EventKind::CacheMiss, node_.name, chunk, store_id);
    if (ctx_.options.qos) ctx_.options.qos->note_cache_miss(ctx_.qos_tenant);
    fetch_from_store(chunk, store_id, cache);
    return;
  }

  fetch_from_store(chunk, store_id, nullptr);
}

void SlaveNode::credit_cache_hit(storage::ChunkId chunk, storage::StoreId store_id) {
  SiteCounters& rec = ctx_.recorder.sites[node_.cluster];
  ++rec.cache_hits;
  // The store never serves these bytes: credit the egress the master
  // charged at assignment.
  rec.stores[store_id].bytes_from_cache += ctx_.layout.chunk(chunk).bytes;
  ctx_.trace(trace::EventKind::CacheHit, node_.name, chunk, ctx_.wire_chunk(chunk).bytes);
  if (ctx_.options.qos) ctx_.options.qos->note_cache_hit(ctx_.qos_tenant);
  if (ctx_.options.replication) {
    ctx_.options.replication->record_hit(chunk);
    // No store fetch will happen: clear the route-load charge the
    // assignment-time resolve() booked against store_id.
    ctx_.options.replication->settle_route(chunk, store_id);
  }
  if (cache::Prefetcher* pf = ctx_.prefetcher(node_.cluster)) pf->mark_consumed(chunk);
}

void SlaveNode::fetch_from_store(storage::ChunkId chunk, storage::StoreId store_id,
                                 cache::ChunkCache* cache) {
  if (ctx_.options.replication) {
    // Demand-fetch heat for HotChunk promotion when no cache feeds hits.
    ctx_.options.replication->record_fetch(chunk);
  }
  ctx_.read_chunk(
      node_.cluster, store_id, chunk, node_.endpoint, ctx_.options.retrieval_streams,
      node_.name, ctx_.qos_tenant, [this] { return !alive_; },
      [this, chunk, store_id, cache](const storage::FetchResult& r) {
        if (!alive_) return;
        if (!r.ok) {
          on_fetch_failed(chunk);
          return;
        }
        if (ctx_.options.replication) {
          // The copy demonstrably exists — revive it if a previous failure
          // had marked it lost.
          ctx_.options.replication->note_fetch_ok(chunk, store_id);
        }
        if (cache) {
          const auto result = cache->insert(chunk, ctx_.wire_chunk(chunk).bytes,
                                            /*prefetched=*/false, ctx_.cache_owner());
          for (const auto& [evictee, bytes] : result.evicted) {
            ctx_.trace(trace::EventKind::CacheEvict, node_.name, evictee, bytes);
          }
        }
        on_fetched(chunk);
      });
}

void SlaveNode::on_fetch_failed(storage::ChunkId chunk) {
  // Exactly-once processing means an assigned chunk cannot be dropped: after
  // the policy's attempts are exhausted, take one maximal backoff and re-open
  // a whole new fetch cycle (which also re-checks the site cache — another
  // slave's copy may have landed meanwhile).
  if (replica::ReplicaSet* rs = ctx_.options.replication) {
    // Replica failover: write the copy off, then re-route the retry cycle to
    // the cheapest surviving replica instead of hammering the failed store.
    const storage::StoreId failed = fetch_store(chunk);
    const double now = ctx_.now_seconds();
    if (rs->mark_lost(chunk, failed, now)) {
      ++ctx_.recorder.replica.replicas_lost;
      ctx_.trace(trace::EventKind::ReplicaLost, node_.name, chunk, failed);
    }
    const storage::StoreId next = rs->resolve(chunk, node_.cluster, now);
    if (next != failed) reassign_store(chunk, failed, next);
  }
  // The cycle spent every attempt, so wait the backoff the attempt after the
  // last would have. Without jitter every slave that lost the same outage
  // waits this same maximal delay, retrying in lockstep and re-overloading
  // the store together; the jitter draw comes from a substream keyed by
  // (endpoint, chunk, per-node draw count) — independent of event
  // interleaving, so a fixed seed still replays bit-identically.
  const storage::RetryPolicy& p = ctx_.options.retry;
  Rng rng = Rng::substream(p.seed, (static_cast<std::uint64_t>(node_.endpoint) << 40) ^
                                       (static_cast<std::uint64_t>(chunk) << 16) ^
                                       backoff_draws_++);
  const double delay = p.backoff_before(p.max_attempts + 1, rng);
  ++ctx_.recorder.sites[node_.cluster].fetch_retries;
  ctx_.trace(trace::EventKind::RetryBackoff, node_.name, chunk, p.max_attempts + 1);
  ctx_.sim().schedule(des::from_seconds(delay), [this, chunk] {
    if (alive_) begin_fetch(chunk);
  });
}

void SlaveNode::on_fetched(storage::ChunkId chunk) {
  ctx_.trace(trace::EventKind::FetchEnd, node_.name, chunk);
  const auto it = fetch_start_.find(chunk);
  stats().retrieval += ctx_.now_seconds() - it->second;
  fetch_start_.erase(it);
  ready_.push_back(chunk);
  maybe_process();
}

void SlaveNode::maybe_process() {
  if (processing_ || ready_.empty() || slot_waiting_) return;
  if (ctx_.arbiter && !slot_held_) {
    // Workload run: the node's core is time-shared between jobs at chunk
    // granularity. Claim it; if another job holds it, the grant callback
    // resumes us at the next slot handover.
    const bool granted = ctx_.arbiter->acquire(node_.endpoint, ctx_.job_id, [this] {
      slot_waiting_ = false;
      slot_held_ = true;
      start_processing();
    });
    if (!granted) {
      slot_waiting_ = true;
      return;
    }
    slot_held_ = true;
  }
  start_processing();
}

void SlaveNode::start_processing() {
  processing_ = true;
  const storage::ChunkId chunk = ready_.front();
  ready_.pop_front();

  const storage::ChunkInfo& info = ctx_.layout.chunk(chunk);
  const AppProfile& profile = ctx_.options.profile;
  const double cores = node_.core_speed * static_cast<double>(node_.cores);
  const double rate = profile.bytes_per_second_per_core * cores;
  double duration =
      static_cast<double>(info.bytes) / rate + profile.per_job_overhead_seconds;
  if (profile.compression_ratio > 1.0 &&
      profile.decompress_bytes_per_second_per_core > 0.0) {
    // Decompress the full (uncompressed) chunk before the kernel sees it.
    duration += static_cast<double>(info.bytes) /
                (profile.decompress_bytes_per_second_per_core * cores);
  }
  ctx_.trace(trace::EventKind::ProcessStart, node_.name, chunk);

  ctx_.sim().schedule(des::from_seconds(duration), [this, chunk, duration] {
    if (alive_) on_processed(chunk, duration);
  });
}

void SlaveNode::on_processed(storage::ChunkId chunk, double duration) {
  // Real execution: fold the chunk's unit range into this node's robj,
  // inline or, for a task that allows it, on the kernel lane.
  if (const api::GRTask* task = ctx_.options.task) {
    const KernelLane::Call call{
        task, ctx_.options.dataset->unit(ctx_.chunk_unit_offset.at(chunk)),
        static_cast<std::size_t>(ctx_.layout.chunk(chunk).units), robj().get()};
    if (task->concurrent_process()) {
      if (!lane_) lane_ = std::make_unique<KernelLane>();
      lane_->submit(ctx_.platform.kernel_pool(), call);
    } else {
      task->process(call.data, call.units, *call.robj);
    }
  }

  ctx_.trace(trace::EventKind::ProcessEnd, node_.name, chunk);
  processing_ = false;
  --active_jobs_;
  assigned_store_.erase(chunk);
  stats().processing += duration;
  stats().finish_time = ctx_.now_seconds();
  ++stats().jobs;

  if (ctx_.arbiter && slot_held_) {
    // Chunk boundary: hand the core back before asking for more work, so the
    // arbiter picks the next job (possibly us again) at this instant.
    slot_held_ = false;
    ctx_.arbiter->release(node_.endpoint, ctx_.job_id, duration);
  }

  if (!ctx_.options.reduction_tree) {
    Message done;
    done.type = MsgType::JobDone;
    done.chunk = chunk;
    ctx_.send(node_.endpoint, master_, kControlMessageBytes, std::move(done));
    unshipped_.push_back(chunk);
  }

  top_up_requests();
  maybe_process();
  if (active_jobs_ == 0 && !processing_) idle_since_ = ctx_.now_seconds();
  if (ctx_.options.reduction_tree) maybe_finish_tree();
  maybe_vacate();
}

void SlaveNode::begin_drain() {
  if (!alive_ || draining_) return;
  draining_ = true;
  ++ctx_.recorder.lifecycle.drains_requested;
  maybe_vacate();
}

void SlaveNode::maybe_vacate() {
  if (!draining_ || vacated_ || !alive_) return;
  // Finish everything already claimed — assigned chunks, fetched-but-queued
  // chunks, and requests still in flight at the master (their replies are
  // either bounced back or NoMoreJobs) — before flushing the final state.
  if (active_jobs_ != 0 || processing_ || !ready_.empty() ||
      outstanding_requests_ != 0) {
    return;
  }
  vacated_ = true;
  // Final delta-robj checkpoint rides the vacate notice: whatever this node
  // computed since its last robj shipment reaches the master, so a drain
  // with adequate notice loses zero completed work.
  Message msg;
  msg.type = MsgType::NodeVacated;
  fence_kernels();
  const std::uint64_t bytes = ctx_.pack_robj(robj(), msg);
  ctx_.trace(trace::EventKind::NodeVacated, node_.name, stats().jobs, bytes);
  ctx_.send(node_.endpoint, master_, bytes, std::move(msg));
  // Rented capacity is handed back the instant the node vacates (no-op for
  // nodes that were never billed, e.g. a drained local node).
  ctx_.recorder.end_cloud_billing(node_.endpoint,
                                  ctx_.now_seconds() - ctx_.job_start_seconds);
  kill();  // silent from here; core slots return to the arbiter
  // Cross-job drain settlement: tell the workload manager this job no
  // longer holds the node (fires after kill so the hook sees final state).
  if (ctx_.on_node_vacated) ctx_.on_node_vacated(node_.endpoint);
}

void SlaveNode::on_child_robj(Message msg) {
  // Charge the local-merge compute before counting the child.
  const AppProfile& profile = ctx_.options.profile;
  const double merge_seconds = profile.merge_seconds(profile.robj_wire_bytes(msg.robj_bytes));
  auto merge = [this, child = std::move(msg.robj)]() mutable {
    if (!alive_) return;
    fence_kernels();
    ctx_.merge_robj(robj(), std::move(child));
    ++children_received_;
    maybe_finish_tree();
  };
  ctx_.sim().schedule(des::from_seconds(merge_seconds), std::move(merge));
}

void SlaveNode::maybe_finish_tree() {
  if (robj_sent_ || !no_more_ || active_jobs_ != 0 || outstanding_requests_ != 0 ||
      children_received_ != expected_children()) {
    return;
  }
  robj_sent_ = true;
  send_robj(rank_ == 0 ? master_ : (*peers_)[parent_rank()], 0);
}

void SlaveNode::send_robj(net::EndpointId dst, std::uint32_t round) {
  Message msg;
  msg.type = MsgType::SlaveRobj;
  msg.want = round;
  msg.batch = std::exchange(unshipped_, {});
  fence_kernels();
  const std::uint64_t bytes = ctx_.pack_robj(robj(), msg);
  ctx_.trace(trace::EventKind::RobjSent, node_.name, bytes);
  ctx_.send(node_.endpoint, dst, bytes, std::move(msg));
}

}  // namespace cloudburst::middleware
