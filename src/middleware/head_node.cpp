#include "middleware/head_node.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace cloudburst::middleware {

HeadNode::HeadNode(RunContext& ctx, net::EndpointId self, JobPool pool,
                   std::vector<MasterInfo> masters)
    : ctx_(ctx), self_(self), pool_(std::move(pool)), masters_(std::move(masters)),
      robjs_expected_(static_cast<std::uint32_t>(masters_.size())) {}

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
      auto& granted = granted_[from];
      granted.insert(granted.end(), reply.batch.begin(), reply.batch.end());
      ctx_.send(self_, from, kControlMessageBytes, std::move(reply));
      break;
    }
    case MsgType::MasterRobj:
      if (failed_masters_.count(from)) break;  // its work was re-granted; drop
      // Receipt commits everything granted so far: the cluster robj covers it.
      robj_received_.insert(from);
      granted_.erase(from);
      merge_robj(std::move(msg));
      break;
    default:
      throw std::logic_error("HeadNode: unexpected message type");
  }
}

void HeadNode::on_master_failed(net::EndpointId master) {
  if (failed_masters_.count(master)) return;
  const bool known = std::any_of(masters_.begin(), masters_.end(),
                                 [&](const MasterInfo& m) { return m.endpoint == master; });
  if (!known) return;
  failed_masters_.insert(master);
  if (robj_received_.count(master)) return;  // its work already committed

  // The cluster's robj dies with it: withdraw it from the global reduction
  // and re-grant every chunk it was holding to the surviving masters.
  --robjs_expected_;
  std::vector<storage::ChunkId> orphaned = std::move(granted_[master]);
  granted_.erase(master);

  std::vector<net::EndpointId> survivors;
  for (const auto& m : masters_) {
    if (!failed_masters_.count(m.endpoint)) survivors.push_back(m.endpoint);
  }
  if (!orphaned.empty()) {
    if (survivors.empty()) {
      throw std::runtime_error(
          "HeadNode: a master failed with uncommitted work and no surviving "
          "cluster to adopt it");
    }
    std::map<net::EndpointId, std::vector<storage::ChunkId>> adopt;
    for (std::size_t i = 0; i < orphaned.size(); ++i) {
      adopt[survivors[i % survivors.size()]].push_back(orphaned[i]);
    }
    for (auto& [ep, chunks] : adopt) {
      if (robj_received_.erase(ep)) {
        // The adopter already committed: expect a second (delta) robj.
        ++robjs_expected_;
      }
      auto& granted = granted_[ep];
      granted.insert(granted.end(), chunks.begin(), chunks.end());
      Message reopen;
      reopen.type = MsgType::BatchAssign;
      reopen.reopen = true;
      reopen.batch = std::move(chunks);
      ctx_.send(self_, ep, kControlMessageBytes, std::move(reopen));
    }
  }
  // The failed master may have been the last straggler: with nothing to
  // re-grant, every surviving robj may already be merged.
  if (robjs_merged_ == robjs_expected_ && !ctx_.recorder.finished) finish_run();
}

void HeadNode::merge_robj(Message msg) {
  // Merges serialize on the head node and cost robj wire bytes / merge rate.
  const AppProfile& profile = ctx_.options.profile;
  const double merge_seconds =
      profile.merge_seconds(profile.robj_wire_bytes(msg.robj_payload.size()));
  const double now = ctx_.now_seconds();
  merge_free_at_ = std::max(merge_free_at_, now) + merge_seconds;
  const double done_at = merge_free_at_;

  auto payload = std::make_shared<std::vector<std::uint8_t>>(std::move(msg.robj_payload));
  ctx_.sim().schedule(des::from_seconds(done_at - now), [this, payload] {
    ctx_.merge_robj(robj_, *payload);
    ctx_.trace(trace::EventKind::RobjMerged, "head");
    ++robjs_merged_;
    if (robjs_merged_ == robjs_expected_) finish_run();
  });
}

void HeadNode::finish_run() {
  if (robj_) ctx_.options.task->finalize(*robj_);
  ctx_.recorder.end_time = ctx_.now_seconds();
  ctx_.recorder.finished = true;
  ctx_.trace(trace::EventKind::RunEnd, "head");
  if (ctx_.on_finished) ctx_.on_finished();
}

}  // namespace cloudburst::middleware
