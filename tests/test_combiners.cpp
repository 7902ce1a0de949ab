// Tests for the reduction-object library: fold semantics, merge laws
// (identity, associativity-by-result, order independence), serialization
// round trips, and byte-size accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "api/combiners.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace cloudburst::api {
namespace {

/// The middleware charges a robj's transfer at byte_size(), so it must be
/// exactly the length serialize() writes.
void expect_byte_size_is_serialized_length(const ReductionObject& robj) {
  BufferWriter w;
  robj.serialize(w);
  EXPECT_EQ(robj.byte_size(), w.buffer().size());
}

// --- VectorFoldRobj -----------------------------------------------------------

TEST(VectorFoldRobj, SumAccumulates) {
  VectorFoldRobj v(3, VectorFold::Sum);
  v.accumulate(0, 1.0);
  v.accumulate(0, 2.0);
  v.accumulate(2, 5.0);
  EXPECT_DOUBLE_EQ(v.at(0), 3.0);
  EXPECT_DOUBLE_EQ(v.at(1), 0.0);
  EXPECT_DOUBLE_EQ(v.at(2), 5.0);
}

TEST(VectorFoldRobj, MinMaxIdentities) {
  VectorFoldRobj mn(2, VectorFold::Min);
  VectorFoldRobj mx(2, VectorFold::Max);
  mn.accumulate(0, 5.0);
  mx.accumulate(0, 5.0);
  EXPECT_DOUBLE_EQ(mn.at(0), 5.0);
  EXPECT_DOUBLE_EQ(mx.at(0), 5.0);
  // Untouched slots hold the identity.
  EXPECT_TRUE(std::isinf(mn.at(1)));
  EXPECT_GT(mn.at(1), 0);
  EXPECT_TRUE(std::isinf(mx.at(1)));
  EXPECT_LT(mx.at(1), 0);
}

TEST(VectorFoldRobj, MergeEmptyIsIdentity) {
  auto v = make_vector_sum(4);
  auto& sums = dynamic_cast<VectorFoldRobj&>(*v);
  sums.accumulate(1, 7.0);
  auto empty = v->clone_empty();
  v->merge_from(*empty);
  EXPECT_DOUBLE_EQ(sums.at(1), 7.0);
}

TEST(VectorFoldRobj, MergeMismatchThrows) {
  VectorFoldRobj a(2, VectorFold::Sum);
  VectorFoldRobj b(3, VectorFold::Sum);
  VectorFoldRobj c(2, VectorFold::Min);
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);
  EXPECT_THROW(a.merge_from(c), std::invalid_argument);
}

TEST(VectorFoldRobj, MergeWrongTypeThrows) {
  VectorFoldRobj a(2, VectorFold::Sum);
  HashCountRobj h;
  EXPECT_THROW(a.merge_from(h), std::invalid_argument);
}

TEST(VectorFoldRobj, SerializeRoundTrip) {
  VectorFoldRobj v(3, VectorFold::Min);
  v.accumulate(0, 2.5);
  v.accumulate(1, -1.0);
  BufferWriter w;
  v.serialize(w);
  VectorFoldRobj copy(1, VectorFold::Sum);
  BufferReader r(w.buffer());
  copy.deserialize(r);
  EXPECT_EQ(copy.size(), 3u);
  EXPECT_DOUBLE_EQ(copy.at(0), 2.5);
  EXPECT_DOUBLE_EQ(copy.at(1), -1.0);
}

TEST(VectorFoldRobj, ByteSizeMatchesPayload) {
  for (const VectorFold fold : {VectorFold::Sum, VectorFold::Min, VectorFold::Max}) {
    VectorFoldRobj v(100, fold);
    expect_byte_size_is_serialized_length(v);
    v.accumulate(3, 2.5);
    expect_byte_size_is_serialized_length(v);
    VectorFoldRobj other(100, fold);
    other.accumulate(7, -1.0);
    v.merge_from(other);
    expect_byte_size_is_serialized_length(v);
  }
  expect_byte_size_is_serialized_length(VectorFoldRobj(0, VectorFold::Sum));
}

// --- TopKMinRobj ----------------------------------------------------------------

TEST(TopKMinRobj, KeepsKSmallest) {
  TopKMinRobj top(3);
  for (int i = 10; i >= 1; --i) top.offer(i, static_cast<std::uint64_t>(i));
  const auto entries = top.sorted_entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_DOUBLE_EQ(entries[0].score, 1.0);
  EXPECT_DOUBLE_EQ(entries[1].score, 2.0);
  EXPECT_DOUBLE_EQ(entries[2].score, 3.0);
}

TEST(TopKMinRobj, TieBreaksById) {
  TopKMinRobj top(2);
  top.offer(1.0, 30);
  top.offer(1.0, 10);
  top.offer(1.0, 20);
  const auto entries = top.sorted_entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].id, 10u);
  EXPECT_EQ(entries[1].id, 20u);
}

TEST(TopKMinRobj, FewerThanKElements) {
  TopKMinRobj top(10);
  top.offer(3.0, 1);
  top.offer(1.0, 2);
  EXPECT_EQ(top.count(), 2u);
  EXPECT_DOUBLE_EQ(top.sorted_entries()[0].score, 1.0);
}

TEST(TopKMinRobj, ZeroKThrows) { EXPECT_THROW(TopKMinRobj(0), std::invalid_argument); }

TEST(TopKMinRobj, MergeEqualsSingleStream) {
  Rng rng(21);
  TopKMinRobj whole(16), left(16), right(16);
  for (int i = 0; i < 5000; ++i) {
    const double score = rng.next_double();
    const auto id = static_cast<std::uint64_t>(i);
    whole.offer(score, id);
    (i % 2 ? left : right).offer(score, id);
  }
  left.merge_from(right);
  EXPECT_EQ(left.sorted_entries(), whole.sorted_entries());
}

TEST(TopKMinRobj, SerializeRoundTripPreservesEntries) {
  TopKMinRobj top(4);
  top.offer(0.5, 1);
  top.offer(0.25, 2);
  top.offer(0.75, 3);
  BufferWriter w;
  top.serialize(w);
  TopKMinRobj copy(1);
  BufferReader r(w.buffer());
  copy.deserialize(r);
  EXPECT_EQ(copy.k(), 4u);
  EXPECT_EQ(copy.sorted_entries(), top.sorted_entries());
}

TEST(TopKMinRobj, ByteSizeMatchesPayload) {
  TopKMinRobj top(4);
  expect_byte_size_is_serialized_length(top);
  top.offer(2.0, 1);
  top.offer(1.0, 2);
  expect_byte_size_is_serialized_length(top);
  TopKMinRobj other(4);
  for (int i = 0; i < 6; ++i) other.offer(0.5 * i, 10 + static_cast<std::uint64_t>(i));
  top.merge_from(other);
  EXPECT_EQ(top.count(), 4u);
  expect_byte_size_is_serialized_length(top);
}

// --- HashCountRobj ---------------------------------------------------------------

TEST(HashCountRobj, AddAndGet) {
  HashCountRobj h;
  h.add(5, 1.0);
  h.add(5, 2.0);
  h.add(7, 4.0);
  EXPECT_DOUBLE_EQ(h.get(5), 3.0);
  EXPECT_DOUBLE_EQ(h.get(7), 4.0);
  EXPECT_DOUBLE_EQ(h.get(999), 0.0);
  EXPECT_EQ(h.distinct_keys(), 2u);
}

TEST(HashCountRobj, MergeAddsCounts) {
  HashCountRobj a, b;
  a.add(1, 1.0);
  a.add(2, 2.0);
  b.add(2, 3.0);
  b.add(3, 4.0);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.get(1), 1.0);
  EXPECT_DOUBLE_EQ(a.get(2), 5.0);
  EXPECT_DOUBLE_EQ(a.get(3), 4.0);
}

TEST(HashCountRobj, SerializeIsCanonicalAndRoundTrips) {
  HashCountRobj a, b;
  // Insert in different orders; serialized form must match.
  a.add(1, 1.0);
  a.add(2, 2.0);
  b.add(2, 2.0);
  b.add(1, 1.0);
  BufferWriter wa, wb;
  a.serialize(wa);
  b.serialize(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());

  HashCountRobj copy;
  BufferReader r(wa.buffer());
  copy.deserialize(r);
  EXPECT_DOUBLE_EQ(copy.get(1), 1.0);
  EXPECT_DOUBLE_EQ(copy.get(2), 2.0);
}

TEST(HashCountRobj, ByteSizeMatchesPayload) {
  HashCountRobj h;
  expect_byte_size_is_serialized_length(h);
  h.add(5, 1.0);
  h.add(9, 2.0);
  expect_byte_size_is_serialized_length(h);
  HashCountRobj other;
  other.add(9, 1.0);
  other.add(12, 4.0);
  h.merge_from(other);
  EXPECT_EQ(h.distinct_keys(), 3u);
  expect_byte_size_is_serialized_length(h);
}

// --- ConcatRobj ---------------------------------------------------------------------

TEST(ConcatRobj, AppendAndCount) {
  ConcatRobj c(2);
  const double r1[] = {1.0, 2.0};
  const double r2[] = {3.0, 4.0};
  c.append(r1);
  c.append(r2);
  EXPECT_EQ(c.records(), 2u);
}

TEST(ConcatRobj, MergeOrderDoesNotAffectSortedView) {
  ConcatRobj a(1), b(1), c(1), d(1);
  const double x = 3.0, y = 1.0, z = 2.0;
  a.append(&x);
  b.append(&y);
  b.append(&z);
  c.append(&y);
  c.append(&z);
  d.append(&x);
  a.merge_from(b);  // {3} + {1,2}
  c.merge_from(d);  // {1,2} + {3}
  EXPECT_EQ(a.sorted_records(), c.sorted_records());
}

TEST(ConcatRobj, RecordSizeMismatchThrows) {
  ConcatRobj a(2), b(3);
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);
}

TEST(ConcatRobj, SerializeRoundTrip) {
  ConcatRobj c(2);
  const double r1[] = {5.0, 6.0};
  c.append(r1);
  BufferWriter w;
  c.serialize(w);
  ConcatRobj copy(1);
  BufferReader r(w.buffer());
  copy.deserialize(r);
  EXPECT_EQ(copy.records(), 1u);
  EXPECT_EQ(copy.data(), c.data());
}

TEST(ConcatRobj, ByteSizeMatchesPayload) {
  ConcatRobj c(3);
  expect_byte_size_is_serialized_length(c);
  const double record[3] = {1.0, 2.0, 3.0};
  c.append(record);
  expect_byte_size_is_serialized_length(c);
  ConcatRobj other(3);
  other.append(record);
  other.append(record);
  c.merge_from(other);
  EXPECT_EQ(c.records(), 3u);
  expect_byte_size_is_serialized_length(c);
}

// --- generic merge-law property sweep -------------------------------------------

/// Factory producing a robj pre-loaded with `chunk`-dependent content; used
/// to check that merging partial objects in any grouping yields the same
/// final state.
struct RobjCase {
  const char* name;
  RobjPtr (*make)();
  void (*fill)(ReductionObject&, int item);
  bool (*equal)(const ReductionObject&, const ReductionObject&);
};

RobjCase vector_case() {
  return {
      "vector_sum",
      +[]() -> RobjPtr { return make_vector_sum(8); },
      +[](ReductionObject& r, int item) {
        auto& v = dynamic_cast<VectorFoldRobj&>(r);
        v.accumulate(static_cast<std::size_t>(item) % 8, item * 1.5);
      },
      +[](const ReductionObject& a, const ReductionObject& b) {
        const auto& va = dynamic_cast<const VectorFoldRobj&>(a);
        const auto& vb = dynamic_cast<const VectorFoldRobj&>(b);
        for (std::size_t i = 0; i < va.size(); ++i) {
          if (std::abs(va.at(i) - vb.at(i)) > 1e-9) return false;
        }
        return true;
      },
  };
}

RobjCase topk_case() {
  return {
      "topk",
      +[]() -> RobjPtr { return RobjPtr(std::make_unique<TopKMinRobj>(5)); },
      +[](ReductionObject& r, int item) {
        auto& t = dynamic_cast<TopKMinRobj&>(r);
        t.offer(((item * 37) % 101) * 0.01, static_cast<std::uint64_t>(item));
      },
      +[](const ReductionObject& a, const ReductionObject& b) {
        return dynamic_cast<const TopKMinRobj&>(a).sorted_entries() ==
               dynamic_cast<const TopKMinRobj&>(b).sorted_entries();
      },
  };
}

RobjCase hash_case() {
  return {
      "hash_count",
      +[]() -> RobjPtr { return RobjPtr(std::make_unique<HashCountRobj>()); },
      +[](ReductionObject& r, int item) {
        dynamic_cast<HashCountRobj&>(r).add(static_cast<std::uint64_t>(item % 13), 1.0);
      },
      +[](const ReductionObject& a, const ReductionObject& b) {
        const auto& ha = dynamic_cast<const HashCountRobj&>(a);
        const auto& hb = dynamic_cast<const HashCountRobj&>(b);
        if (ha.distinct_keys() != hb.distinct_keys()) return false;
        for (const auto& [k, v] : ha.counts()) {
          if (std::abs(hb.get(k) - v) > 1e-9) return false;
        }
        return true;
      },
  };
}

class MergeLawSweep : public ::testing::TestWithParam<int> {};

TEST_P(MergeLawSweep, PartitionedMergeEqualsSequential) {
  const int parts = GetParam();
  const int items = 120;
  for (const RobjCase& c : {vector_case(), topk_case(), hash_case()}) {
    SCOPED_TRACE(c.name);
    // Sequential reference.
    RobjPtr ref = c.make();
    for (int i = 0; i < items; ++i) c.fill(*ref, i);

    // Partitioned: round-robin items into `parts` objects, merge into one.
    std::vector<RobjPtr> partial;
    for (int p = 0; p < parts; ++p) partial.push_back(c.make());
    for (int i = 0; i < items; ++i) c.fill(*partial[i % parts], i);
    for (int p = 1; p < parts; ++p) partial[0]->merge_from(*partial[p]);

    EXPECT_TRUE(c.equal(*ref, *partial[0])) << "parts=" << parts;
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, MergeLawSweep, ::testing::Values(1, 2, 3, 4, 8, 16));

}  // namespace
}  // namespace cloudburst::api
