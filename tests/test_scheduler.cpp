// Tests for the head node's JobPool: locality preference, consecutive
// batches, stealing, the minimum-contention heuristic, the endgame steal
// reservation, and exhaustion behavior.
#include <gtest/gtest.h>

#include <set>

#include "common/units.hpp"
#include "middleware/scheduler.hpp"

namespace cloudburst::middleware {
namespace {

using namespace cloudburst::units;
using storage::ChunkId;
using storage::DataLayout;

/// files x chunks layout with the first `local_files` files on store 0 and
/// the rest on store 1.
DataLayout make_layout(std::uint32_t files, std::uint32_t chunks_per_file,
                       std::uint32_t local_files) {
  storage::LayoutSpec spec;
  spec.num_files = files;
  spec.chunks_per_file = chunks_per_file;
  spec.total_bytes = static_cast<std::uint64_t>(files) * chunks_per_file * MiB(1);
  spec.unit_bytes = 64;
  DataLayout layout = storage::build_layout(spec);
  for (const auto& f : layout.files()) {
    layout.move_file(f.id, f.id < local_files ? 0 : 1);
  }
  return layout;
}

TEST(JobPool, InitialAccounting) {
  const auto layout = make_layout(8, 3, 4);
  JobPool pool(layout, SchedulerPolicy{});
  EXPECT_EQ(pool.remaining(), 24u);
  EXPECT_EQ(pool.remaining_on(0), 12u);
  EXPECT_EQ(pool.remaining_on(1), 12u);
  EXPECT_FALSE(pool.empty());
}

TEST(JobPool, PrefersLocalStore) {
  const auto layout = make_layout(8, 3, 4);
  JobPool pool(layout, SchedulerPolicy{});
  const auto batch = pool.take_batch(0, 4);
  ASSERT_EQ(batch.size(), 4u);
  for (ChunkId c : batch) EXPECT_EQ(layout.store_of(c), 0u);
}

TEST(JobPool, ConsecutiveBatchComesFromOneFileInOrder) {
  const auto layout = make_layout(8, 4, 8);
  JobPool pool(layout, SchedulerPolicy{});
  const auto batch = pool.take_batch(0, 4);
  ASSERT_EQ(batch.size(), 4u);
  const auto file = layout.chunk(batch[0]).file;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(layout.chunk(batch[i]).file, file);
    EXPECT_EQ(layout.chunk(batch[i]).index_in_file, i);
  }
}

TEST(JobPool, DrainsEverythingExactlyOnce) {
  const auto layout = make_layout(8, 3, 4);
  JobPool pool(layout, SchedulerPolicy{});
  std::set<ChunkId> seen;
  while (!pool.empty()) {
    for (ChunkId c : pool.take_batch(0, 4)) {
      EXPECT_TRUE(seen.insert(c).second) << "chunk " << c << " assigned twice";
    }
  }
  EXPECT_EQ(seen.size(), 24u);
}

TEST(JobPool, StealsOnlyAfterLocalDrained) {
  const auto layout = make_layout(4, 2, 2);  // 4 local chunks, 4 remote
  SchedulerPolicy policy;
  policy.batch_size = 4;
  JobPool pool(layout, policy);
  auto first = pool.take_batch(0, 4);
  for (ChunkId c : first) EXPECT_EQ(layout.store_of(c), 0u);
  auto second = pool.take_batch(0, 4);
  ASSERT_FALSE(second.empty());
  for (ChunkId c : second) EXPECT_EQ(layout.store_of(c), 1u);
}

TEST(JobPool, StealBatchSizeCapsRemoteGrants) {
  const auto layout = make_layout(4, 2, 0);  // everything remote to store 0
  SchedulerPolicy policy;
  policy.steal_batch_size = 1;
  JobPool pool(layout, policy);
  EXPECT_EQ(pool.take_batch(0, 4).size(), 1u);
  policy.steal_batch_size = 3;
  JobPool pool3(layout, policy);
  EXPECT_EQ(pool3.take_batch(0, 4).size(), 3u);
}

TEST(JobPool, NoStealingWhenDisabled) {
  const auto layout = make_layout(4, 2, 2);
  SchedulerPolicy policy;
  policy.allow_stealing = false;
  JobPool pool(layout, policy);
  while (!pool.take_batch(0, 4).empty()) {
  }
  // Local store drained; remote jobs remain but are not granted.
  EXPECT_EQ(pool.remaining(), 4u);
  EXPECT_TRUE(pool.take_batch(0, 4).empty());
  // The other side can still take them.
  EXPECT_FALSE(pool.take_batch(1, 4).empty());
}

TEST(JobPool, EndgameReservationWithholdsLastRemoteJobs) {
  const auto layout = make_layout(4, 2, 0);  // 8 jobs, all on store 1
  SchedulerPolicy policy;
  policy.steal_reserve = 4;
  policy.steal_batch_size = 8;
  JobPool pool(layout, policy);
  // Requester prefers store 0 (empty): with store 1 reserved for its owner
  // it can steal only while more than steal_reserve jobs remain.
  auto batch = pool.take_batch(0, 8, /*reserved_stores=*/{1});
  EXPECT_EQ(batch.size(), 8u - 4u);
  EXPECT_TRUE(pool.take_batch(0, 8, {1}).empty());
  // The owner drains the reserved tail.
  EXPECT_EQ(pool.take_batch(1, 8).size(), 4u);
}

TEST(JobPool, ReserveExceedingRemainingStrandsNothing) {
  // Endgame edge case: the reservation is at least as large as everything
  // the owner side still has. A thief must get nothing (the whole tail is
  // reserved), the owner must still drain every job, and nothing may be
  // stranded in the pool afterwards.
  const auto layout = make_layout(2, 2, 0);  // 4 jobs, all on store 1
  SchedulerPolicy policy;
  policy.steal_reserve = 4;  // reserve == remaining
  policy.steal_batch_size = 8;
  JobPool pool(layout, policy);
  EXPECT_TRUE(pool.take_batch(0, 8, /*reserved_stores=*/{1}).empty());
  EXPECT_EQ(pool.remaining(), 4u);

  policy.steal_reserve = 64;  // reserve > remaining
  JobPool pool64(layout, policy);
  EXPECT_TRUE(pool64.take_batch(0, 8, {1}).empty());

  // The owner drains the fully reserved tail; pool ends empty.
  std::set<ChunkId> seen;
  while (!pool64.empty()) {
    const auto batch = pool64.take_batch(1, 2);
    ASSERT_FALSE(batch.empty()) << "reserved jobs stranded in the pool";
    for (ChunkId c : batch) EXPECT_TRUE(seen.insert(c).second);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(JobPool, ReservationReleasesOnceOwnerWithdraws) {
  // The owner computes part of its tail, then deactivates (finishes): the
  // moment its store leaves the reserved list mid-drain, the thief may take the
  // rest — jobs reserved earlier are not permanently off limits.
  const auto layout = make_layout(2, 2, 0);  // 4 jobs on store 1
  SchedulerPolicy policy;
  policy.steal_reserve = 4;
  policy.steal_batch_size = 8;
  JobPool pool(layout, policy);
  EXPECT_TRUE(pool.take_batch(0, 8, {1}).empty());  // all 4 reserved
  EXPECT_EQ(pool.take_batch(1, 1).size(), 1u);      // owner takes one...
  EXPECT_TRUE(pool.take_batch(0, 8, {1}).empty());  // ...rest still reserved
  // Owner withdraws: the thief drains the remaining 3 without it.
  EXPECT_EQ(pool.take_batch(0, 8, {}).size(), 3u);
  EXPECT_TRUE(pool.empty());
}

TEST(JobPool, ReservationIgnoredWhenOwnerAbsent) {
  const auto layout = make_layout(4, 2, 0);
  SchedulerPolicy policy;
  policy.steal_reserve = 4;
  policy.steal_batch_size = 8;
  JobPool pool(layout, policy);
  // Nothing reserved (no active owner): everything is stealable.
  std::size_t total = 0;
  while (true) {
    const auto batch = pool.take_batch(0, 8, {});
    if (batch.empty()) break;
    total += batch.size();
  }
  EXPECT_EQ(total, 8u);
}

TEST(JobPool, MinContentionSpreadsAcrossFiles) {
  const auto layout = make_layout(4, 4, 0);  // 4 remote files
  SchedulerPolicy policy;
  policy.remote_selection = RemoteSelection::MinContention;
  policy.steal_batch_size = 2;
  JobPool pool(layout, policy);
  // Four consecutive steals should touch four distinct files (reader counts
  // increment per grant).
  std::set<storage::FileId> files;
  for (int i = 0; i < 4; ++i) {
    const auto batch = pool.take_batch(0, 2);
    ASSERT_FALSE(batch.empty());
    files.insert(layout.chunk(batch.front()).file);
  }
  EXPECT_EQ(files.size(), 4u);
}

TEST(JobPool, SequentialSelectionSticksToLowestFile) {
  const auto layout = make_layout(4, 4, 0);
  SchedulerPolicy policy;
  policy.remote_selection = RemoteSelection::Sequential;
  policy.steal_batch_size = 2;
  JobPool pool(layout, policy);
  const auto b1 = pool.take_batch(0, 2);
  const auto b2 = pool.take_batch(0, 2);
  EXPECT_EQ(layout.chunk(b1.front()).file, 0u);
  EXPECT_EQ(layout.chunk(b2.front()).file, 0u);  // finishes file 0 first
}

TEST(JobPool, RandomSelectionIsDeterministicPerSeed) {
  const auto layout = make_layout(8, 2, 0);
  SchedulerPolicy policy;
  policy.remote_selection = RemoteSelection::Random;
  policy.random_seed = 7;
  JobPool a(layout, policy), b(layout, policy);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.take_batch(0, 2), b.take_batch(0, 2));
  }
}

TEST(JobPool, ReaderCountsTrackGrants) {
  const auto layout = make_layout(2, 4, 2);
  JobPool pool(layout, SchedulerPolicy{});
  EXPECT_EQ(pool.readers(0), 0u);
  pool.take_batch(0, 2);
  EXPECT_EQ(pool.readers(0) + pool.readers(1), 1u);
}

TEST(JobPool, WantZeroReturnsNothing) {
  const auto layout = make_layout(2, 2, 2);
  JobPool pool(layout, SchedulerPolicy{});
  EXPECT_TRUE(pool.take_batch(0, 0).empty());
  EXPECT_EQ(pool.remaining(), 4u);
}

class BatchSizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BatchSizeSweep, AllJobsAssignedOnceForAnyBatchSize) {
  const std::uint32_t batch = GetParam();
  const auto layout = make_layout(6, 4, 3);
  SchedulerPolicy policy;
  policy.batch_size = batch;
  policy.steal_batch_size = batch;
  JobPool pool(layout, policy);
  std::set<ChunkId> seen;
  // Alternate requesters to mimic two masters.
  storage::StoreId who = 0;
  while (!pool.empty()) {
    const auto got = pool.take_batch(who, batch);
    who = 1 - who;
    for (ChunkId c : got) EXPECT_TRUE(seen.insert(c).second);
  }
  EXPECT_EQ(seen.size(), 24u);
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchSizeSweep, ::testing::Values(1, 2, 3, 4, 8, 24));

}  // namespace
}  // namespace cloudburst::middleware
