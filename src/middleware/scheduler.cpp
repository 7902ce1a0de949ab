#include "middleware/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace cloudburst::middleware {

JobPool::JobPool(const storage::DataLayout& layout, SchedulerPolicy policy,
                 ReplicaView view)
    : layout_(layout), policy_(policy), view_(std::move(view)),
      files_(layout.files().size()),
      rng_(Rng::substream(policy.random_seed, 0x5c4ed)) {
  for (const auto& chunk : layout.chunks()) {
    files_[chunk.file].chunks.push_back(chunk.id);
    ++remaining_;
  }
  // Chunks arrive in id order which is index order within a file; assert the
  // invariant the consecutive-batch optimization relies on.
  for (auto& f : files_) {
    for (std::size_t i = 1; i < f.chunks.size(); ++i) {
      if (layout.chunk(f.chunks[i - 1]).index_in_file + 1 !=
          layout.chunk(f.chunks[i]).index_in_file) {
        throw std::invalid_argument("JobPool: chunks of a file must be consecutive");
      }
    }
  }
}

std::uint64_t JobPool::remaining_on(storage::StoreId store) const {
  std::uint64_t n = 0;
  for (std::size_t f = 0; f < files_.size(); ++f) {
    if (layout_.file(static_cast<storage::FileId>(f)).store == store) {
      n += files_[f].chunks.size();
    }
  }
  return n;
}

std::uint32_t JobPool::readers(storage::FileId file) const { return files_.at(file).readers; }

void JobPool::take_from_file(storage::FileId file, std::uint32_t want,
                             std::vector<storage::ChunkId>& out) {
  auto& state = files_.at(file);
  const std::uint32_t take =
      std::min<std::uint32_t>(want, static_cast<std::uint32_t>(state.chunks.size()));
  for (std::uint32_t i = 0; i < take; ++i) {
    out.push_back(state.chunks.front());
    state.chunks.pop_front();
    --remaining_;
  }
  if (take > 0) ++state.readers;
}

std::vector<storage::ChunkId> JobPool::take_all() {
  std::vector<storage::ChunkId> out;
  for (auto& f : files_) {
    out.insert(out.end(), f.chunks.begin(), f.chunks.end());
    f.chunks.clear();
  }
  remaining_ = 0;
  return out;
}

storage::FileId JobPool::pick_remote_file(const std::vector<storage::FileId>& candidates,
                                          storage::StoreId preferred) {
  // "The remote jobs are chosen from files which the minimum number of
  // nodes are currently processing."
  auto min_contention = [&] {
    storage::FileId best = candidates.front();
    std::uint32_t best_readers = std::numeric_limits<std::uint32_t>::max();
    for (storage::FileId f : candidates) {
      if (files_[f].readers < best_readers) {
        best_readers = files_[f].readers;
        best = f;
      }
    }
    return best;
  };
  switch (policy_.remote_selection) {
    case RemoteSelection::Sequential:
      return candidates.front();
    case RemoteSelection::Random:
      return candidates[rng_.next_below(candidates.size())];
    case RemoteSelection::CheapestReplica: {
      if (!view_.steal_cost) return min_contention();  // no replica view
      // Cheapest reachable data first: rank files by the route cost of their
      // next chunk's best live replica, then by contention, then file id.
      storage::FileId best = candidates.front();
      double best_cost = std::numeric_limits<double>::max();
      std::uint32_t best_readers = std::numeric_limits<std::uint32_t>::max();
      for (storage::FileId f : candidates) {
        const double cost = view_.steal_cost(files_[f].chunks.front(), preferred);
        if (cost < best_cost ||
            (cost == best_cost && files_[f].readers < best_readers)) {
          best_cost = cost;
          best_readers = files_[f].readers;
          best = f;
        }
      }
      return best;
    }
    case RemoteSelection::MinContention:
      return min_contention();
  }
  return candidates.front();
}

std::vector<storage::ChunkId> JobPool::take_batch(
    storage::StoreId preferred, std::uint32_t want,
    const std::vector<storage::StoreId>& reserved_stores) {
  std::vector<storage::ChunkId> out;
  if (want == 0 || remaining_ == 0) return out;
  out.reserve(want);

  // Remaining steal allowance per non-preferred store, computed lazily at
  // first touch and decremented as jobs are taken. A reserved store (one
  // another active cluster prefers) keeps its last `steal_reserve` jobs —
  // a remote job granted in the final seconds becomes a WAN straggler while
  // the data-local side idles. Unreserved stores are fully stealable.
  std::map<storage::StoreId, std::uint64_t> allowance;
  auto stealable_from = [&](storage::StoreId s) -> std::uint64_t {
    auto it = allowance.find(s);
    if (it == allowance.end()) {
      const std::uint64_t avail = remaining_on(s);
      const bool reserved = std::find(reserved_stores.begin(), reserved_stores.end(), s) !=
                            reserved_stores.end();
      const std::uint64_t v =
          reserved && avail > policy_.steal_reserve ? avail - policy_.steal_reserve
          : reserved                                ? 0
                                                    : avail;
      it = allowance.emplace(s, v).first;
    }
    return it->second;
  };

  auto files_with_jobs = [&](bool on_preferred) {
    std::vector<storage::FileId> ids;
    for (std::size_t f = 0; f < files_.size(); ++f) {
      if (files_[f].chunks.empty()) continue;
      const storage::StoreId s = layout_.file(static_cast<storage::FileId>(f)).store;
      // Replica-aware locality: a file whose next chunk has a live copy on
      // the requester's preferred store reads locally even though its
      // primary lives elsewhere (and costs no steal allowance).
      bool local = s == preferred;
      if (!local && view_.on_store) {
        local = view_.on_store(files_[f].chunks.front(), preferred);
      }
      if (local != on_preferred) continue;
      if (!on_preferred && stealable_from(s) == 0) continue;
      ids.push_back(static_cast<storage::FileId>(f));
    }
    return ids;
  };

  // Phase 1: locality — serve from the requester's own store first.
  while (out.size() < want) {
    const auto local_files = files_with_jobs(true);
    if (local_files.empty()) break;
    // Continue the file with the fewest readers among local files too; for
    // a single requesting cluster this degenerates to sequential files.
    const storage::FileId file = pick_remote_file(local_files, preferred);
    const auto remaining_want = static_cast<std::uint32_t>(want - out.size());
    take_from_file(file, policy_.consecutive_batches ? remaining_want : 1, out);
  }

  // Phase 2: stealing — jobs from other stores, capped per request and by
  // each store's steal allowance.
  if (out.size() < want && policy_.allow_stealing) {
    const std::size_t target =
        out.size() + std::min<std::size_t>(want - out.size(), policy_.steal_batch_size);
    while (out.size() < target) {
      const auto candidates = files_with_jobs(false);
      if (candidates.empty()) break;
      const storage::FileId file = pick_remote_file(candidates, preferred);
      const storage::StoreId store = layout_.file(file).store;
      const auto remaining_want = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(target - out.size(), stealable_from(store)));
      const std::size_t before = out.size();
      take_from_file(file, policy_.consecutive_batches ? remaining_want : 1, out);
      allowance[store] -= out.size() - before;
      if (out.size() == before) break;  // defensive: no forward progress
    }
  }
  return out;
}

}  // namespace cloudburst::middleware
