#include "middleware/head_node.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace cloudburst::middleware {

HeadNode::HeadNode(RunContext& ctx, net::EndpointId self, JobPool pool,
                   std::vector<MasterInfo> masters)
    : ctx_(ctx), self_(self), pool_(std::move(pool)), masters_(std::move(masters)) {
  for (const auto& m : masters_) granted_[m.endpoint];  // nothing committed yet
}

void HeadNode::handle(net::EndpointId from, Message msg) {
  switch (msg.type) {
    case MsgType::BatchRequest: {
      if (failed_masters_.count(from)) break;  // in flight when its site died
      const auto it = std::find_if(masters_.begin(), masters_.end(),
                                   [&](const MasterInfo& m) { return m.endpoint == from; });
      if (it == masters_.end()) throw std::logic_error("HeadNode: request from unknown master");
      // The endgame reservation covers exactly the stores other registered
      // clusters prefer: their last `steal_reserve` jobs stay off limits
      // while their owner is still in the run.
      std::vector<storage::StoreId> reserved;
      for (const auto& m : masters_) {
        if (m.endpoint == from || m.preferred_store == it->preferred_store) continue;
        if (m.preferred_store == storage::kInvalidStore) continue;
        if (failed_masters_.count(m.endpoint)) continue;  // nobody left to reserve for
        if (std::find(reserved.begin(), reserved.end(), m.preferred_store) == reserved.end()) {
          reserved.push_back(m.preferred_store);
        }
      }
      Message reply;
      reply.type = MsgType::BatchAssign;
      reply.batch = pool_.take_batch(it->preferred_store, msg.want, reserved);
      // An empty batch means this master can get nothing further — either
      // the pool is drained or stealing is disabled and its side is done.
      reply.exhausted = reply.batch.empty();
      if (reply.exhausted) exhausted_.insert(from);
      auto& granted = granted_[from];
      granted.insert(granted.end(), reply.batch.begin(), reply.batch.end());
      ctx_.send(self_, from, kControlMessageBytes, std::move(reply));
      regrant({});  // the last master able to ask may just have been told no
      break;
    }
    case MsgType::MasterRobj: {
      if (failed_masters_.count(from)) break;  // its work was re-granted; drop
      // The robj covers the `want` oldest chunks granted since the master's
      // previous robj; one already on the wire when a reopen grant was sent
      // covers less than all, and the master ships the rest as a delta.
      auto& granted = granted_[from];
      if (msg.want > granted.size()) {
        throw std::logic_error("HeadNode: a cluster robj covers chunks never granted");
      }
      granted.erase(granted.begin(), granted.begin() + msg.want);
      if (granted.empty()) granted_.erase(from);  // committed
      merge_robj(std::move(msg));
      break;
    }
    default:
      throw std::logic_error("HeadNode: unexpected message type");
  }
}

void HeadNode::on_master_failed(net::EndpointId master) {
  if (!failed_masters_.insert(master).second) return;
  // The cluster's robj dies with it: re-grant to the surviving masters
  // every chunk it held that no received robj covers.
  auto orphaned = granted_.extract(master);
  if (orphaned.empty()) return;  // everything committed
  regrant(std::move(orphaned.mapped()));
  // The failed master may have been the last straggler: with nothing to
  // re-grant, every surviving robj may already be merged.
  if (merges_pending_ == 0 && granted_.empty() && !ctx_.recorder.finished) finish_run();
}

void HeadNode::regrant(std::vector<storage::ChunkId> chunks) {
  // Once every live master was told "exhausted", nobody draws from the pool
  // again: what it still holds (the last chunks reserved for a dead
  // master's store, or any chunk when stealing is off) goes out too.
  if (std::all_of(masters_.begin(), masters_.end(), [this](const MasterInfo& m) {
        return failed_masters_.count(m.endpoint) || exhausted_.count(m.endpoint);
      })) {
    const std::vector<storage::ChunkId> stranded = pool_.take_all();
    chunks.insert(chunks.end(), stranded.begin(), stranded.end());
  }
  if (chunks.empty()) return;
  std::vector<net::EndpointId> survivors;
  for (const auto& m : masters_) {
    if (!failed_masters_.count(m.endpoint)) survivors.push_back(m.endpoint);
  }
  if (survivors.empty()) {
    throw std::runtime_error(
        "HeadNode: a master failed with uncommitted work and no surviving "
        "cluster to adopt it");
  }
  std::map<net::EndpointId, std::vector<storage::ChunkId>> adopt;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    adopt[survivors[i % survivors.size()]].push_back(chunks[i]);
  }
  for (auto& [ep, batch] : adopt) {
    auto& granted = granted_[ep];  // a committed adopter ships a delta robj
    granted.insert(granted.end(), batch.begin(), batch.end());
    Message reopen;
    reopen.type = MsgType::BatchAssign;
    reopen.reopen = true;
    reopen.batch = std::move(batch);
    ctx_.send(self_, ep, kControlMessageBytes, std::move(reopen));
  }
}

void HeadNode::merge_robj(Message msg) {
  // Merges serialize on the head node and cost robj wire bytes / merge rate.
  const AppProfile& profile = ctx_.options.profile;
  const double merge_seconds = profile.merge_seconds(profile.robj_wire_bytes(msg.robj_bytes));
  const double now = ctx_.now_seconds();
  merge_free_at_ = std::max(merge_free_at_, now) + merge_seconds;
  const double done_at = merge_free_at_;

  ++merges_pending_;
  auto merge = [this, incoming = std::move(msg.robj)]() mutable {
    ctx_.merge_robj(robj_, std::move(incoming));
    ctx_.trace(trace::EventKind::RobjMerged, "head");
    if (--merges_pending_ == 0 && granted_.empty() && !ctx_.recorder.finished) finish_run();
  };
  ctx_.sim().schedule(des::from_seconds(done_at - now), std::move(merge));
}

void HeadNode::finish_run() {
  // Exactly once: every chunk left the pool (a static-assignment run deals
  // them all to the masters up front and never draws from it), and every
  // grant is covered by a merged cluster robj.
  if ((!ctx_.options.static_assignment && !pool_.empty()) || !granted_.empty()) {
    throw std::logic_error("HeadNode: run finished with " + std::to_string(pool_.remaining()) +
                           " chunks in the pool and " + std::to_string(granted_.size()) +
                           " masters holding uncommitted grants");
  }
  if (robj_) ctx_.options.task->finalize(*robj_);
  ctx_.recorder.end_time = ctx_.now_seconds();
  ctx_.recorder.finished = true;
  ctx_.trace(trace::EventKind::RunEnd, "head");
  if (ctx_.on_finished) ctx_.on_finished();
}

}  // namespace cloudburst::middleware
