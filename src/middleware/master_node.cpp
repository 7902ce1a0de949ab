#include "middleware/master_node.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace cloudburst::middleware {

MasterNode::MasterNode(RunContext& ctx, cluster::ClusterId site, net::EndpointId self,
                       net::EndpointId head, std::vector<net::EndpointId> slaves)
    : ctx_(ctx), site_(site), trace_name_("master-" + ctx.platform.site_name(site)),
      self_(self), head_(head) {
  slaves_.resize(slaves.size());
  for (std::size_t i = 0; i < slaves.size(); ++i) slaves_[i].endpoint = slaves[i];
}

std::size_t MasterNode::index_of(net::EndpointId slave) const {
  const auto it = std::lower_bound(
      slaves_.begin(), slaves_.end(), slave,
      [](const Slave& s, net::EndpointId ep) { return s.endpoint < ep; });
  if (it == slaves_.end() || it->endpoint != slave) {
    throw std::logic_error("MasterNode: message from a slave of another cluster");
  }
  return static_cast<std::size_t>(it - slaves_.begin());
}

void MasterNode::handle(net::EndpointId from, Message msg) {
  if (evacuated_) return;  // cluster lost: every late message is void
  switch (msg.type) {
    case MsgType::SlaveJobRequest: {
      Slave& slave = record(from);
      if (slave.state == State::Gone) break;  // late message from a lost node
      if (!pool_.empty()) {
        waiting_slaves_.push_back(&slave);
        serve_waiting();
      } else if (no_more_) {
        Message reply;
        reply.type = MsgType::NoMoreJobs;
        ctx_.send(self_, from, kControlMessageBytes, std::move(reply));
      } else {
        waiting_slaves_.push_back(&slave);
      }
      maybe_refill();
      break;
    }
    case MsgType::BatchAssign: {
      if (!msg.reopen) {
        refill_outstanding_ = false;
        no_more_ = no_more_ || msg.exhausted;
      } else if (cluster_robj_sent_) {
        // Unsolicited grant: a peer master's site died and the head is
        // re-homing its uncommitted chunks here. This cluster already
        // committed, so it re-opens: the shipped robj lives safely at the
        // head; drop whatever merged here since and let the next commit
        // carry the delta.
        cluster_robj_sent_ = false;
        robj_.reset();
      }
      ctx_.trace(trace::EventKind::BatchGranted, trace_name_, msg.batch.size(),
                 msg.reopen ? 2 : msg.exhausted ? 1 : 0);
      granted_since_robj_ += static_cast<std::uint32_t>(msg.batch.size());
      for (storage::ChunkId c : msg.batch) pool_.push_back(c);
      // Work reached a cluster with nobody left to run it: a held
      // replacement takes it, or the cluster is lost.
      if (!pool_.empty() && !has_capacity()) {
        ctx_.on_node_lost(site_);
        if (evacuated_) return;
      }
      serve_waiting();
      // Whatever stayed in the pool after serving the waiters is granted but
      // unfetched — exactly the lookahead the prefetcher feeds on.
      if (cache::Prefetcher* pf = ctx_.prefetcher(site_)) {
        pf->on_pool_update(pool_, ctx_.layout);
      }
      // Slaves idled by NoMoreJobs never pull again: push re-homed work.
      if (msg.reopen) {
        flush_pool_if_endgame();
      } else {
        maybe_refill();
      }
      maybe_commit();
      break;
    }
    case MsgType::JobDone: {
      Slave& slave = record(from);
      if (slave.state == State::Gone) break;
      const auto it = std::find(slave.inflight.begin(), slave.inflight.end(), msg.chunk);
      if (it != slave.inflight.end()) {
        slave.unchecked.push_back(*it);
        slave.inflight.erase(it);
        --outstanding_total_;
      }
      maybe_commit();
      break;
    }
    case MsgType::SlaveRobj: {
      if (ctx_.options.reduction_tree) {
        // Rank 0 of the binomial tree delivers the merged cluster robj.
        ctx_.merge_robj(robj_, std::move(msg.robj));
        ++tree_robjs_received_;
        if (tree_robjs_received_ == 1) send_cluster_robj();
      } else {
        Slave& slave = record(from);
        if (slave.state == State::Gone) break;  // lost robj: its chunks get re-run
        ctx_.merge_robj(robj_, std::move(msg.robj));
        // A periodic flush that protects newly completed work.
        if (msg.want == 0 && !slave.unchecked.empty()) note_flush(slave.unchecked.size(), msg);
        // Robj receipt checkpoints the slave's done work: the chunks the
        // previous robj missed, and the chunks this one names. A chunk the
        // slave finished after shipping it is not in it, though its JobDone
        // (a smaller message) arrived first; only the next robj covers it.
        slave.uncovered = std::exchange(slave.unchecked, {});
        std::erase_if(slave.uncovered,
                      [&](storage::ChunkId c) { return std::ranges::count(msg.batch, c) > 0; });
        // Only robjs of the current commit round count toward completion;
        // periodic-checkpoint robjs (round 0) and stale rounds just merge.
        if (msg.want != commit_round_) break;
        ++robjs_received_;
        if (committing_) slave.responded = true;
        finish_commit_if_complete();
      }
      break;
    }
    case MsgType::ChunkReturned:
      on_chunk_returned(record(from), msg.chunk);
      break;
    case MsgType::NodeVacated:
      on_node_vacated(record(from), std::move(msg));
      break;
    default:
      throw std::logic_error("MasterNode: unexpected message type");
  }
}

void MasterNode::finish_commit_if_complete() {
  if (!committing_ || robjs_received_ < robjs_expected_) return;
  committing_ = false;
  // If a failure re-opened work while we were committing, keep going;
  // otherwise the cluster is done.
  if (pool_.empty() && outstanding_total_ == 0 && no_more_) {
    send_cluster_robj();
  } else {
    maybe_commit();
  }
}

void MasterNode::note_flush(std::size_t chunks, const Message& msg) {
  const std::uint64_t bytes = ctx_.options.profile.robj_wire_bytes(msg.robj_bytes);
  ++ctx_.recorder.lifecycle.checkpoint_flushes;
  ctx_.recorder.lifecycle.checkpoint_bytes += bytes;
  ctx_.trace(trace::EventKind::CheckpointFlushed, trace_name_, chunks, bytes);
}

void MasterNode::start() {
  if (ctx_.options.reduction_tree || ctx_.options.checkpoint_interval_seconds <= 0.0) {
    return;
  }
  ctx_.sim().schedule(des::from_seconds(ctx_.options.checkpoint_interval_seconds),
                      [this] { checkpoint_tick(); });
}

void MasterNode::checkpoint_tick() {
  if (cluster_robj_sent_) return;  // run over for this cluster
  for (const Slave& s : slaves_) {
    if (s.state == State::Gone || s.unchecked.empty()) continue;  // nothing new to protect
    Message msg;
    msg.type = MsgType::RobjRequest;
    msg.want = 0;  // periodic round
    ctx_.send(self_, s.endpoint, kControlMessageBytes, std::move(msg));
  }
  ctx_.sim().schedule(des::from_seconds(ctx_.options.checkpoint_interval_seconds),
                      [this] { checkpoint_tick(); });
}

void MasterNode::assign_static(
    const std::vector<std::pair<net::EndpointId, storage::ChunkId>>& plan) {
  no_more_ = true;  // nothing will ever be pulled from the head
  for (const auto& [slave, chunk] : plan) push_assign(chunk, record(slave));
}

void MasterNode::evacuate() {
  if (evacuated_) return;
  evacuated_ = true;
  cluster_robj_sent_ = true;  // permanently silences checkpoint_tick
  if (cache::Prefetcher* pf = ctx_.prefetcher(site_)) {
    for (const Slave& s : slaves_) pf->drop_owner(s.endpoint);
  }
}

bool MasterNode::has_capacity() const {
  return std::ranges::any_of(
      slaves_, [](const Slave& s) { return s.state != State::Held && s.state != State::Gone; });
}

void MasterNode::on_slave_failed(net::EndpointId ep) {
  if (evacuated_) return;  // whole cluster already written off
  Slave& slave = record(ep);
  if (slave.state == State::Gone) return;
  // Work not covered by a received robj is lost with the dead node's robj;
  // re-enqueue and replay it.
  const std::vector<storage::ChunkId> lost = lose_slave(slave);
  const bool migrated = (!lost.empty() || work_remains()) && ctx_.on_node_lost(site_);
  ctx_.recorder.lifecycle.chunks_reexecuted += static_cast<std::uint32_t>(lost.size());
  for (storage::ChunkId c : lost) {
    ctx_.recorder.lifecycle.bytes_reexecuted += ctx_.layout.chunk(c).bytes;
  }
  if (evacuated_) return;  // the head re-grants everything this cluster held

  if (!lost.empty()) {
    const std::vector<Slave*> targets = push_targets();
    if (migrated || targets.empty()) {
      // A replacement was leased (or one is still booting): re-pool the lost
      // chunks for pull-based replay so the booted node (and any idle
      // survivor still waiting) claims them on demand instead of
      // overloading the survivors.
      for (storage::ChunkId c : lost) pool_.push_back(c);
      serve_waiting();
    } else {
      for (storage::ChunkId c : lost) {
        push_assign(c, *targets[push_cursor_++ % targets.size()]);
      }
    }
  }
  finish_commit_if_complete();
  maybe_commit();
}

std::vector<storage::ChunkId> MasterNode::lose_slave(Slave& slave) {
  slave.state = State::Gone;
  if (ctx_.options.replication) {
    // Lifecycle composition: a site losing nodes is degrading — steer reads
    // (and new replica placements) away from its store for a while.
    ctx_.options.replication->mark_site_suspect(site_, ctx_.now_seconds());
  }
  std::erase(waiting_slaves_, &slave);
  // A slave dying mid-commit withdraws the robj the round expected from it.
  if (committing_ && !slave.responded && robjs_expected_ > 0) --robjs_expected_;

  std::vector<storage::ChunkId> held = std::exchange(slave.unchecked, {});
  held.insert(held.end(), slave.uncovered.begin(), slave.uncovered.end());
  slave.uncovered.clear();
  outstanding_total_ -= static_cast<std::uint32_t>(slave.inflight.size());
  held.insert(held.end(), slave.inflight.begin(), slave.inflight.end());
  slave.inflight.clear();
  if (cache::Prefetcher* pf = ctx_.prefetcher(site_)) {
    // The node may be joined on in-flight prefetches — its completion
    // callbacks must never fire. And chunks it held are about to be
    // re-enqueued: clear their issued/consumed dedup entries so the
    // recovery copies are prefetchable again.
    pf->drop_owner(slave.endpoint);
    for (storage::ChunkId c : held) pf->release(c);
  }
  return held;
}

bool MasterNode::work_remains() const {
  return !pool_.empty() || outstanding_total_ > 0 || !no_more_;
}

std::vector<MasterNode::Slave*> MasterNode::running_slaves(bool with_draining) {
  std::vector<Slave*> running;
  for (Slave& s : slaves_) {
    if (s.state == State::Running || (with_draining && s.state == State::Draining)) {
      running.push_back(&s);
    }
  }
  return running;
}

std::vector<MasterNode::Slave*> MasterNode::push_targets() {
  std::vector<Slave*> targets = running_slaves(false);
  // Every survivor is draining: bounce work at them anyway — each bounce
  // re-pools the chunk, which either reaches a held replacement or, once the
  // last node vacates, is re-granted with the lost cluster's work.
  if (targets.empty()) targets = running_slaves(true);
  return targets;
}

void MasterNode::flush_pool_if_endgame() {
  if (!no_more_ || pool_.empty() || !waiting_slaves_.empty()) return;
  // Idle survivors already got NoMoreJobs and will never pull again, so work
  // that lands back in the pool at endgame must be pushed. Only running,
  // non-draining nodes qualify; with none, the pool waits for a migration
  // replacement to boot and pull.
  const std::vector<Slave*> targets = running_slaves(false);
  if (targets.empty()) return;
  while (!pool_.empty()) {
    const storage::ChunkId c = pool_.front();
    pool_.pop_front();
    push_assign(c, *targets[push_cursor_++ % targets.size()]);
  }
}

void MasterNode::on_chunk_returned(Slave& slave, storage::ChunkId chunk) {
  if (slave.state == State::Running) slave.state = State::Draining;
  const auto it = std::find(slave.inflight.begin(), slave.inflight.end(), chunk);
  if (it == slave.inflight.end()) return;  // already reclaimed via the vacate path
  slave.inflight.erase(it);
  --outstanding_total_;
  // The chunk never started on the draining node: reverse the assignment
  // accounting (its re-assignment will account it again) and re-pool it.
  ctx_.book_read(site_, chunk, assigned_store(chunk), -1);
  ++ctx_.recorder.lifecycle.chunks_returned;
  if (cache::Prefetcher* pf = ctx_.prefetcher(site_)) pf->release(chunk);
  pool_.push_back(chunk);
  serve_waiting();
  flush_pool_if_endgame();
  maybe_commit();
}

void MasterNode::on_node_vacated(Slave& slave, Message msg) {
  if (slave.state == State::Gone) return;
  // The final delta-robj rides the vacate notice: merging it checkpoints
  // everything the node ever completed, so a drain loses zero finished work.
  ctx_.merge_robj(robj_, std::move(msg.robj));
  auto& rec = ctx_.recorder.lifecycle;
  ++rec.nodes_vacated;
  note_flush(slave.unchecked.size(), msg);
  slave.unchecked.clear();
  slave.uncovered.clear();

  // An assignment pushed while the vacate notice was in flight crossed it on
  // the wire and was silently dropped by the now-dead node: reverse its
  // accounting and re-pool it (never fetched, so nothing is re-executed).
  for (storage::ChunkId c : lose_slave(slave)) {
    ctx_.book_read(site_, c, assigned_store(c), -1);
    ++rec.chunks_returned;
    pool_.push_back(c);
  }

  const bool migrated = work_remains() && ctx_.on_node_lost(site_);
  if (evacuated_) return;  // the head re-grants everything this cluster held
  serve_waiting();
  if (!migrated) flush_pool_if_endgame();
  finish_commit_if_complete();
  maybe_commit();
}

void MasterNode::maybe_refill() {
  if (refill_outstanding_ || no_more_) return;
  if (!pool_.empty() && waiting_slaves_.empty()) return;
  refill_outstanding_ = true;
  Message msg;
  msg.type = MsgType::BatchRequest;
  msg.want = std::max<std::uint32_t>(ctx_.options.policy.batch_size,
                                     static_cast<std::uint32_t>(waiting_slaves_.size()));
  ctx_.trace(trace::EventKind::BatchRequested, trace_name_, msg.want);
  ctx_.send(self_, head_, kControlMessageBytes, std::move(msg));
}

void MasterNode::serve_waiting() {
  while (!waiting_slaves_.empty() && !pool_.empty()) {
    assign_to(*waiting_slaves_.front());
    waiting_slaves_.pop_front();
  }
  if (no_more_ && pool_.empty()) {
    while (!waiting_slaves_.empty()) {
      Message reply;
      reply.type = MsgType::NoMoreJobs;
      ctx_.send(self_, waiting_slaves_.front()->endpoint, kControlMessageBytes,
                std::move(reply));
      waiting_slaves_.pop_front();
    }
  }
}

void MasterNode::assign_to(Slave& slave) {
  // File affinity: continue the slave's sequential read if the pool holds
  // the successor chunk of what it last processed; otherwise take the front.
  auto pick = pool_.begin();
  if (slave.next_read) {
    for (auto p = pool_.begin(); p != pool_.end(); ++p) {
      const storage::ChunkInfo& info = ctx_.layout.chunk(*p);
      if (info.file == slave.next_read->first && info.index_in_file == slave.next_read->second) {
        pick = p;
        break;
      }
    }
  }
  const storage::ChunkId chunk = *pick;
  pool_.erase(pick);
  push_assign(chunk, slave);
}

void MasterNode::push_assign(storage::ChunkId chunk, Slave& slave) {
  const storage::ChunkInfo& info = ctx_.layout.chunk(chunk);
  slave.next_read = {info.file, info.index_in_file + 1};
  if (cache::Prefetcher* pf = ctx_.prefetcher(site_)) {
    // Assigned now: if its prefetch has not been issued the slave's own fetch
    // is the transfer (an already-airborne GET stays up and gets joined).
    pf->cancel(chunk);
  }
  // Replication: resolve the cheapest live replica once, at assignment time;
  // accounting, the wire message, and the slave's fetch all use that store.
  const storage::StoreId from = ctx_.resolve_store(site_, chunk);
  if (ctx_.options.replication) assigned_store_[chunk] = from;
  ctx_.book_read(site_, chunk, from, +1);
  if (!ctx_.options.reduction_tree) {
    slave.inflight.push_back(chunk);
    ++outstanding_total_;
  }
  Message msg;
  msg.type = MsgType::AssignJob;
  msg.chunk = chunk;
  if (ctx_.options.replication) msg.store = from;
  ctx_.send(self_, slave.endpoint, kControlMessageBytes, std::move(msg));
}

storage::StoreId MasterNode::assigned_store(storage::ChunkId chunk) const {
  if (const auto it = assigned_store_.find(chunk); it != assigned_store_.end()) {
    return it->second;
  }
  return ctx_.layout.store_of(chunk);
}

void MasterNode::maybe_commit() {
  if (ctx_.options.reduction_tree || committing_ || cluster_robj_sent_) return;
  if (!no_more_ || !pool_.empty() || outstanding_total_ != 0) return;
  // Two-phase commit: ask every slave still in the run for its reduction
  // object (held ones answer with identity robjs).
  committing_ = true;
  ++commit_round_;
  robjs_expected_ = 0;
  robjs_received_ = 0;
  for (Slave& s : slaves_) {
    s.responded = false;
    if (s.state == State::Gone) continue;
    ++robjs_expected_;
    Message msg;
    msg.type = MsgType::RobjRequest;
    msg.want = commit_round_;
    ctx_.send(self_, s.endpoint, kControlMessageBytes, std::move(msg));
  }
  // No slave left: the pool is drained, nothing is in flight and the head
  // said "exhausted", so the robjs merged here (vacate notices, checkpoints)
  // already cover every grant.
  finish_commit_if_complete();
}

void MasterNode::send_cluster_robj() {
  if (cluster_robj_sent_) return;
  cluster_robj_sent_ = true;
  Message up;
  up.type = MsgType::MasterRobj;
  up.want = std::exchange(granted_since_robj_, 0);  // the grants this robj covers
  const std::uint64_t bytes = ctx_.pack_robj(robj_, up);
  ctx_.trace(trace::EventKind::RobjSent, trace_name_, bytes);
  ctx_.send(self_, head_, bytes, std::move(up));
}

}  // namespace cloudburst::middleware
