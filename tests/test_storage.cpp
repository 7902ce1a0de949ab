// Tests for the storage substrate: layout geometry, store assignment, the
// index round trip, and the store's timing/stat behavior with disk and
// object-store parameters.
#include <gtest/gtest.h>

#include <numeric>

#include "common/units.hpp"
#include "des/simulator.hpp"
#include "storage/data_layout.hpp"
#include "storage/store.hpp"

namespace cloudburst::storage {
namespace {

using namespace cloudburst::units;
using des::from_seconds;
using des::Simulator;

LayoutSpec paper_like_spec() {
  LayoutSpec spec;
  spec.total_bytes = GiB(12);
  spec.num_files = 32;
  spec.chunks_per_file = 3;
  spec.unit_bytes = 40;
  return spec;
}

TEST(DataLayout, GeometryMatchesSpec) {
  const DataLayout layout = build_layout(paper_like_spec());
  EXPECT_EQ(layout.files().size(), 32u);
  EXPECT_EQ(layout.chunks().size(), 96u);
  EXPECT_EQ(layout.total_bytes(), GiB(12));
}

TEST(DataLayout, EveryByteAccountedFor) {
  LayoutSpec spec = paper_like_spec();
  spec.total_bytes = 1000003;  // prime: forces uneven chunk split
  spec.num_files = 7;
  spec.chunks_per_file = 3;
  const DataLayout layout = build_layout(spec);
  std::uint64_t total = 0;
  for (const auto& c : layout.chunks()) total += c.bytes;
  EXPECT_EQ(total, 1000003u);
}

TEST(DataLayout, ChunksAreNearlyEven) {
  const DataLayout layout = build_layout(paper_like_spec());
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (const auto& c : layout.chunks()) {
    lo = std::min(lo, c.bytes);
    hi = std::max(hi, c.bytes);
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(DataLayout, ChunkOffsetsTileFiles) {
  const DataLayout layout = build_layout(paper_like_spec());
  for (const auto& f : layout.files()) {
    std::uint64_t offset = 0;
    for (std::uint32_t k = 0; k < f.chunk_count; ++k) {
      const auto& c = layout.chunk(f.first_chunk + k);
      EXPECT_EQ(c.file, f.id);
      EXPECT_EQ(c.index_in_file, k);
      EXPECT_EQ(c.offset, offset);
      offset += c.bytes;
    }
    EXPECT_EQ(offset, f.bytes);
  }
}

TEST(DataLayout, UnitsDeriveFromBytes) {
  LayoutSpec spec = paper_like_spec();
  spec.unit_bytes = 100;
  const DataLayout layout = build_layout(spec);
  for (const auto& c : layout.chunks()) {
    EXPECT_EQ(c.units, c.bytes / 100);
  }
}

TEST(DataLayout, RejectsDegenerateSpecs) {
  LayoutSpec spec = paper_like_spec();
  spec.num_files = 0;
  EXPECT_THROW(build_layout(spec), std::invalid_argument);
  spec = paper_like_spec();
  spec.unit_bytes = 0;
  EXPECT_THROW(build_layout(spec), std::invalid_argument);
  spec = paper_like_spec();
  spec.total_bytes = 10;  // fewer bytes than chunks
  EXPECT_THROW(build_layout(spec), std::invalid_argument);
}

class FractionSweep : public ::testing::TestWithParam<double> {};

TEST_P(FractionSweep, StoreAssignmentHitsTargetWithinOneFile) {
  const double target = GetParam();
  DataLayout layout = build_layout(paper_like_spec());
  const double achieved = assign_stores_by_fraction(layout, target, 0, 1);
  // Whole-file granularity: at most one file (1/32) away from the target.
  EXPECT_NEAR(achieved, target, 1.0 / 32 + 1e-9);
  EXPECT_EQ(layout.bytes_on(0) + layout.bytes_on(1), layout.total_bytes());
  EXPECT_NEAR(static_cast<double>(layout.bytes_on(0)) /
                  static_cast<double>(layout.total_bytes()),
              achieved, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Fractions, FractionSweep,
                         ::testing::Values(0.0, 1.0 / 6, 1.0 / 3, 0.5, 2.0 / 3, 1.0));

TEST(DataLayout, ChunksOnReportsPerStore) {
  DataLayout layout = build_layout(paper_like_spec());
  assign_stores_by_fraction(layout, 0.5, 0, 1);
  const auto on0 = layout.chunks_on(0);
  const auto on1 = layout.chunks_on(1);
  EXPECT_EQ(on0.size() + on1.size(), 96u);
  for (ChunkId c : on0) EXPECT_EQ(layout.store_of(c), 0u);
  for (ChunkId c : on1) EXPECT_EQ(layout.store_of(c), 1u);
}

TEST(DataLayout, FractionOutOfRangeThrows) {
  DataLayout layout = build_layout(paper_like_spec());
  EXPECT_THROW(assign_stores_by_fraction(layout, -0.1, 0, 1), std::invalid_argument);
  EXPECT_THROW(assign_stores_by_fraction(layout, 1.1, 0, 1), std::invalid_argument);
}

TEST(DataIndex, SerializeParseRoundTrip) {
  DataLayout layout = build_layout(paper_like_spec());
  assign_stores_by_fraction(layout, 1.0 / 3, 0, 1);
  BufferWriter w;
  serialize_index(layout, w);
  BufferReader r(w.buffer());
  const DataLayout parsed = parse_index(r);
  EXPECT_EQ(parsed, layout);
}

TEST(DataIndex, BadMagicRejected) {
  BufferWriter w;
  w.write_u32(0x12345678);
  BufferReader r(w.buffer());
  EXPECT_THROW(parse_index(r), std::runtime_error);
}

// --- store services ----------------------------------------------------------

/// A site with one reader endpoint and one store endpoint behind a disk link.
struct StoreRig {
  Simulator sim;
  net::Network net{sim};
  net::EndpointId reader, store_ep;
  net::LinkId disk;

  explicit StoreRig(double disk_bw) {
    const auto site = net.add_site("site");
    disk = net.add_link("disk", disk_bw, 0);
    store_ep = net.add_endpoint("store", site);
    net.set_access_path(store_ep, {disk});
    reader = net.add_endpoint("reader", site);
  }
};

ChunkInfo make_chunk(ChunkId id, FileId file, std::uint32_t index, std::uint64_t bytes) {
  ChunkInfo c;
  c.id = id;
  c.file = file;
  c.index_in_file = index;
  c.bytes = bytes;
  c.units = bytes;
  return c;
}

/// A disk as the platform builds one: a seek rule and a single spindle.
Store::Params disk_params(des::SimDuration seek_latency, double per_stream_bandwidth) {
  return Store::Params{.seek_latency = seek_latency,
                       .per_stream_bandwidth = per_stream_bandwidth,
                       .max_streams = 1};
}

TEST(LocalStore, SequentialReadAvoidsSeek) {
  StoreRig rig(1e6);
  Store store(0, rig.sim, rig.net, rig.store_ep, disk_params(from_seconds(0.5), 0));
  double t1 = -1, t2 = -1;
  store.fetch(rig.reader, make_chunk(0, 0, 0, 1'000'000), 1,
              [&](const FetchResult&) { t1 = des::to_seconds(rig.sim.now()); });
  rig.sim.run();
  store.fetch(rig.reader, make_chunk(1, 0, 1, 1'000'000), 1,
              [&](const FetchResult&) { t2 = des::to_seconds(rig.sim.now()); });
  rig.sim.run();
  EXPECT_NEAR(t1, 1.5, 1e-6);       // first access seeks
  EXPECT_NEAR(t2 - t1, 1.0, 1e-6);  // continuation does not
  EXPECT_EQ(store.stats().seeks, 1u);
  EXPECT_EQ(store.stats().requests, 2u);
}

TEST(LocalStore, NonConsecutiveChunkSeeks) {
  StoreRig rig(1e6);
  Store store(0, rig.sim, rig.net, rig.store_ep, disk_params(from_seconds(0.5), 0));
  store.fetch(rig.reader, make_chunk(0, 0, 0, 1000), 1, nullptr);
  rig.sim.run();
  store.fetch(rig.reader, make_chunk(2, 0, 2, 1000), 1, nullptr);  // skips index 1
  rig.sim.run();
  EXPECT_EQ(store.stats().seeks, 2u);
}

TEST(LocalStore, DifferentReaderForcesSeek) {
  StoreRig rig(1e6);
  const auto reader2 = rig.net.add_endpoint("reader2", 0);
  Store store(0, rig.sim, rig.net, rig.store_ep, disk_params(from_seconds(0.5), 0));
  store.fetch(rig.reader, make_chunk(0, 0, 0, 1000), 1, nullptr);
  rig.sim.run();
  store.fetch(reader2, make_chunk(1, 0, 1, 1000), 1, nullptr);
  rig.sim.run();
  EXPECT_EQ(store.stats().seeks, 2u);
}

TEST(LocalStore, PerStreamCapLimitsSingleReader) {
  StoreRig rig(10e6);
  Store store(0, rig.sim, rig.net, rig.store_ep, disk_params(0, /*per_stream=*/1e6));
  double done = -1;
  store.fetch(rig.reader, make_chunk(0, 0, 0, 1'000'000), 1,
              [&](const FetchResult&) { done = des::to_seconds(rig.sim.now()); });
  rig.sim.run();
  EXPECT_NEAR(done, 1.0, 1e-6);  // capped despite the 10 MB/s disk
}

TEST(LocalStore, BytesServedAccumulate) {
  StoreRig rig(1e6);
  Store store(0, rig.sim, rig.net, rig.store_ep, disk_params(0, 0));
  store.fetch(rig.reader, make_chunk(0, 0, 0, 123), 1, nullptr);
  store.fetch(rig.reader, make_chunk(1, 0, 1, 877), 1, nullptr);
  rig.sim.run();
  EXPECT_EQ(store.stats().bytes_served, 1000u);
}

TEST(ObjectStore, RequestLatencyAppliesOnce) {
  StoreRig rig(1e6);
  Store store(1, rig.sim, rig.net, rig.store_ep,
              Store::Params{.request_latency = from_seconds(0.25)});
  double done = -1;
  store.fetch(rig.reader, make_chunk(0, 0, 0, 1'000'000), 1,
              [&](const FetchResult&) { done = des::to_seconds(rig.sim.now()); });
  rig.sim.run();
  EXPECT_NEAR(done, 1.25, 1e-6);
}

TEST(ObjectStore, MultipleStreamsBeatPerConnectionCap) {
  // 4 MB chunk, 1 MB/s per connection, 10 MB/s aggregate: one stream takes
  // 4s; four streams take 1s.
  StoreRig rig(10e6);
  Store store(1, rig.sim, rig.net, rig.store_ep, Store::Params{.per_stream_bandwidth = 1e6});
  double done1 = -1;
  store.fetch(rig.reader, make_chunk(0, 0, 0, 4'000'000), 1,
              [&](const FetchResult&) { done1 = des::to_seconds(rig.sim.now()); });
  rig.sim.run();
  EXPECT_NEAR(done1, 4.0, 1e-5);

  double done4 = -1;
  const double start = des::to_seconds(rig.sim.now());
  store.fetch(rig.reader, make_chunk(1, 0, 1, 4'000'000), 4,
              [&](const FetchResult&) { done4 = des::to_seconds(rig.sim.now()); });
  rig.sim.run();
  EXPECT_NEAR(done4 - start, 1.0, 1e-5);
}

TEST(ObjectStore, StreamsShareAggregateCapacity) {
  // 8 streams of 1 MB/s against a 4 MB/s front: aggregate binds at 4 MB/s.
  StoreRig rig(4e6);
  Store store(1, rig.sim, rig.net, rig.store_ep, Store::Params{.per_stream_bandwidth = 1e6});
  double done = -1;
  store.fetch(rig.reader, make_chunk(0, 0, 0, 8'000'000), 8,
              [&](const FetchResult&) { done = des::to_seconds(rig.sim.now()); });
  rig.sim.run();
  EXPECT_NEAR(done, 2.0, 1e-5);
}

TEST(ObjectStore, UnevenSplitStillCompletes) {
  StoreRig rig(1e9);
  Store store(1, rig.sim, rig.net, rig.store_ep, Store::Params{});
  double done = -1;
  // 10 bytes over 3 streams: 4+3+3.
  store.fetch(rig.reader, make_chunk(0, 0, 0, 10), 3,
              [&](const FetchResult&) { done = des::to_seconds(rig.sim.now()); });
  rig.sim.run();
  EXPECT_GE(done, 0.0);
  EXPECT_EQ(store.stats().bytes_served, 10u);
  EXPECT_EQ(store.stats().seeks, 0u);
}

TEST(Store, DiskParamsIgnoreExtraStreams) {
  // One spindle: eight streams move the chunk no faster than one, even with
  // a per-stream cap far below the disk link (an object store would split
  // the read into eight capped GETs and finish 8x sooner).
  StoreRig rig(10e6);
  Store store(0, rig.sim, rig.net, rig.store_ep, disk_params(from_seconds(0.5), 1e6));
  double one = -1, eight = -1;
  store.fetch(rig.reader, make_chunk(0, 0, 0, 1'000'000), 1,
              [&](const FetchResult&) { one = des::to_seconds(rig.sim.now()); });
  rig.sim.run();
  store.fetch(rig.reader, make_chunk(1, 1, 0, 1'000'000), 8,
              [&](const FetchResult&) { eight = des::to_seconds(rig.sim.now()) - one; });
  rig.sim.run();
  EXPECT_NEAR(one, 1.5, 1e-6);  // seek + 1 MB at the 1 MB/s stream cap
  EXPECT_DOUBLE_EQ(eight, one);
  EXPECT_EQ(store.stats().seeks, 2u);
}

}  // namespace
}  // namespace cloudburst::storage
