// Tests for the evaluation applications: generator contracts, kernel
// correctness against brute-force references, and GR == MapReduce
// equivalence for every app on both engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <typeinfo>
#include <utility>

#include "apps/datagen.hpp"
#include "apps/kmeans.hpp"
#include "apps/knn.hpp"
#include "apps/pagerank.hpp"
#include "apps/wordcount.hpp"
#include "common/serialize.hpp"
#include "engine/gr_engine.hpp"
#include "engine/mr_engine.hpp"

namespace cloudburst::apps {
namespace {

using engine::GrEngineOptions;
using engine::gr_run;
using engine::MemoryDataset;
using engine::mr_run;
using engine::MrEngineOptions;

// --- generators -----------------------------------------------------------------

TEST(Datagen, PointsHaveSequentialIds) {
  PointGenSpec spec;
  spec.count = 100;
  spec.dim = 4;
  const auto data = generate_points(spec);
  EXPECT_EQ(data.units(), 100u);
  EXPECT_EQ(data.unit_bytes(), point_record_bytes(4));
  for (std::size_t i = 0; i < data.units(); ++i) {
    EXPECT_EQ(point_id(data.unit(i)), i);
  }
}

TEST(Datagen, PointsAreDeterministic) {
  PointGenSpec spec;
  spec.count = 50;
  spec.dim = 3;
  spec.seed = 9;
  const auto a = generate_points(spec);
  const auto b = generate_points(spec);
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size_bytes()));
}

TEST(Datagen, PointsClusterAroundMixtureCenters) {
  PointGenSpec spec;
  spec.count = 2000;
  spec.dim = 4;
  spec.mixture_components = 3;
  spec.component_spread = 50.0;
  spec.noise_sigma = 0.5;
  const auto data = generate_points(spec);
  const auto centers = mixture_centers(spec);
  // Every point should be within a few sigma of SOME center.
  for (std::size_t i = 0; i < data.units(); i += 37) {
    const float* coords = point_coords(data.unit(i));
    double best = std::numeric_limits<double>::infinity();
    for (const auto& c : centers) {
      double d = 0;
      for (std::size_t k = 0; k < spec.dim; ++k) {
        d += (coords[k] - c[k]) * (coords[k] - c[k]);
      }
      best = std::min(best, d);
    }
    EXPECT_LT(std::sqrt(best), 6 * spec.noise_sigma);
  }
}

TEST(Datagen, EdgesRespectRangeAndMinOutDegree) {
  GraphGenSpec spec;
  spec.pages = 100;
  spec.edges = 500;
  const auto data = generate_edges(spec);
  EXPECT_EQ(data.units(), 500u);
  const auto deg = out_degrees(data, spec.pages);
  for (std::uint32_t p = 0; p < spec.pages; ++p) EXPECT_GE(deg[p], 1u) << "page " << p;
  for (std::size_t i = 0; i < data.units(); ++i) {
    EdgeRecord e;
    std::memcpy(&e, data.unit(i), sizeof e);
    EXPECT_LT(e.src, spec.pages);
    EXPECT_LT(e.dst, spec.pages);
    EXPECT_NE(e.src, e.dst);  // no self-loops
  }
}

TEST(Datagen, EdgesRejectTooFew) {
  GraphGenSpec spec;
  spec.pages = 10;
  spec.edges = 5;
  EXPECT_THROW(generate_edges(spec), std::invalid_argument);
}

TEST(Datagen, EdgesRejectOnePage) {
  // With one page every edge would be a self-loop.
  GraphGenSpec spec;
  spec.pages = 1;
  spec.edges = 4;
  EXPECT_THROW(generate_edges(spec), std::invalid_argument);
}

TEST(Datagen, EdgesRejectNonFiniteSkew) {
  for (const double skew : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    GraphGenSpec spec;
    spec.pages = 1000;
    spec.edges = 2000;
    spec.popularity_skew = skew;
    EXPECT_THROW(generate_edges(spec), std::invalid_argument) << skew;
  }
}

TEST(Datagen, WordsRejectNonFiniteExponent) {
  for (const double s : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    WordGenSpec spec;
    spec.count = 100;
    spec.vocabulary = 1000;
    spec.zipf_s = s;
    EXPECT_THROW(generate_words(spec), std::invalid_argument) << s;
  }
}

TEST(Datagen, WordsFollowZipfShape) {
  WordGenSpec spec;
  spec.count = 20000;
  spec.vocabulary = 1000;
  spec.zipf_s = 1.2;
  const auto data = generate_words(spec);
  std::size_t low = 0;
  for (std::size_t i = 0; i < data.units(); ++i) {
    WordRecord w;
    std::memcpy(&w, data.unit(i), sizeof w);
    EXPECT_LT(w.word_id, spec.vocabulary);
    low += w.word_id < 10;
  }
  EXPECT_GT(low, data.units() / 5);
}

TEST(WordCount, ProcessRejectsWrongRobj) {
  const auto data = MemoryDataset::from_records(std::vector<WordRecord>(4, WordRecord{3}));
  const auto sums = api::make_vector_sum(8);
  EXPECT_THROW(WordCountTask().process(data.data(), 4, *sums), std::bad_cast);
}

// --- knn --------------------------------------------------------------------------

std::vector<api::TopKMinRobj::Entry> brute_force_knn(const MemoryDataset& data,
                                                     const std::vector<float>& query,
                                                     std::size_t k) {
  std::vector<api::TopKMinRobj::Entry> all;
  for (std::size_t i = 0; i < data.units(); ++i) {
    const float* coords = point_coords(data.unit(i));
    double d = 0;
    for (std::size_t j = 0; j < query.size(); ++j) {
      d += (static_cast<double>(coords[j]) - query[j]) *
           (static_cast<double>(coords[j]) - query[j]);
    }
    all.push_back({d, point_id(data.unit(i))});
  }
  std::sort(all.begin(), all.end());
  all.resize(std::min(k, all.size()));
  return all;
}

TEST(Knn, GrMatchesBruteForce) {
  PointGenSpec spec;
  spec.count = 5000;
  spec.dim = 6;
  spec.seed = 2;
  const auto data = generate_points(spec);
  const std::vector<float> query(6, 0.5f);
  KnnTask task(25, query);

  GrEngineOptions options;
  options.threads = 4;
  const auto robj = gr_run(task, data, options);
  EXPECT_EQ(KnnTask::neighbors(*robj), brute_force_knn(data, query, 25));
}

TEST(Knn, MrMatchesBruteForce) {
  PointGenSpec spec;
  spec.count = 3000;
  spec.dim = 4;
  spec.seed = 5;
  const auto data = generate_points(spec);
  const std::vector<float> query(4, -1.0f);
  KnnTask task(10, query);

  MrEngineOptions options;
  options.threads = 3;
  options.use_combiner = true;
  options.combine_flush_pairs = 128;
  const auto out = mr_run(task, data, options);
  EXPECT_EQ(KnnTask::neighbors(out), brute_force_knn(data, query, 10));
}

TEST(Knn, KLargerThanDataset) {
  PointGenSpec spec;
  spec.count = 7;
  spec.dim = 2;
  const auto data = generate_points(spec);
  KnnTask task(100, {0.0f, 0.0f});
  const auto robj = gr_run(task, data, GrEngineOptions{});
  EXPECT_EQ(KnnTask::neighbors(*robj).size(), 7u);
}

TEST(Knn, RejectsBadParams) {
  EXPECT_THROW(KnnTask(0, {1.0f}), std::invalid_argument);
  EXPECT_THROW(KnnTask(5, {}), std::invalid_argument);
}

// --- kmeans ------------------------------------------------------------------------

TEST(Kmeans, OneIterationMatchesBruteForce) {
  PointGenSpec spec;
  spec.count = 4000;
  spec.dim = 3;
  spec.mixture_components = 4;
  spec.seed = 8;
  const auto data = generate_points(spec);
  std::vector<std::vector<float>> centroids = {
      {0, 0, 0}, {5, 5, 5}, {-5, -5, -5}, {10, -10, 0}};
  KmeansTask task(centroids);

  // Brute-force assignment.
  std::vector<std::vector<double>> sum(4, std::vector<double>(3, 0.0));
  std::vector<double> count(4, 0.0);
  for (std::size_t i = 0; i < data.units(); ++i) {
    const float* c = point_coords(data.unit(i));
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < 4; ++j) {
      double d = 0;
      for (int k = 0; k < 3; ++k) {
        d += (static_cast<double>(c[k]) - centroids[j][k]) *
             (static_cast<double>(c[k]) - centroids[j][k]);
      }
      if (d < best_d) {
        best_d = d;
        best = j;
      }
    }
    for (int k = 0; k < 3; ++k) sum[best][k] += c[k];
    count[best] += 1;
  }

  GrEngineOptions options;
  options.threads = 4;
  const auto robj = gr_run(task, data, options);
  const auto got = task.centroids_from(*robj);
  for (std::size_t j = 0; j < 4; ++j) {
    for (int k = 0; k < 3; ++k) {
      const double expected = count[j] > 0 ? sum[j][k] / count[j] : centroids[j][k];
      EXPECT_NEAR(got[j][k], expected, 1e-6) << "cluster " << j << " dim " << k;
    }
  }
}

TEST(Kmeans, GrAndMrAgree) {
  PointGenSpec spec;
  spec.count = 3000;
  spec.dim = 4;
  spec.mixture_components = 3;
  spec.seed = 12;
  const auto data = generate_points(spec);
  std::vector<std::vector<float>> centroids = {{0, 0, 0, 0}, {3, 3, 3, 3}, {-3, 0, 3, 0}};
  KmeansTask task(centroids);

  GrEngineOptions gr_options;
  gr_options.threads = 2;
  const auto robj = gr_run(task, data, gr_options);
  const auto gr_centroids = task.centroids_from(*robj);

  MrEngineOptions mr_options;
  mr_options.threads = 3;
  mr_options.use_combiner = true;
  const auto mr_centroids = task.centroids_from(mr_run(task, data, mr_options));

  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_NEAR(gr_centroids[j][k], mr_centroids[j][k], 1e-6);
    }
  }
}

TEST(Kmeans, IterationConvergesTowardMixtureCenters) {
  PointGenSpec spec;
  spec.count = 6000;
  spec.dim = 2;
  spec.mixture_components = 3;
  spec.component_spread = 20.0;
  spec.noise_sigma = 0.5;
  spec.seed = 31;
  const auto data = generate_points(spec);
  const auto truth = mixture_centers(spec);

  // Start centroids perturbed from the truth; Lloyd should snap them back.
  std::vector<std::vector<float>> start;
  for (const auto& c : truth) {
    std::vector<float> s = c;
    for (auto& v : s) v += 2.0f;
    start.push_back(s);
  }
  const auto final_centroids = kmeans_iterate(data, start, 8, 4);
  for (std::size_t j = 0; j < truth.size(); ++j) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& t : truth) {
      double d = 0;
      for (std::size_t k = 0; k < 2; ++k) {
        d += (final_centroids[j][k] - t[k]) * (final_centroids[j][k] - t[k]);
      }
      best = std::min(best, d);
    }
    EXPECT_LT(std::sqrt(best), 0.5) << "centroid " << j;
  }
}

TEST(Kmeans, EmptyClusterKeepsOldCentroid) {
  std::vector<std::uint64_t> ids = {0};
  // One point at the origin and a far-away centroid that captures nothing.
  std::vector<std::byte> bytes(point_record_bytes(2));
  const float coords[2] = {0.0f, 0.0f};
  write_point(bytes.data(), 0, coords, 2);
  const MemoryDataset data(std::move(bytes), point_record_bytes(2));

  KmeansTask task({{0.0f, 0.0f}, {100.0f, 100.0f}});
  const auto robj = gr_run(task, data, GrEngineOptions{});
  const auto got = task.centroids_from(*robj);
  EXPECT_NEAR(got[1][0], 100.0, 1e-9);
  EXPECT_NEAR(got[1][1], 100.0, 1e-9);
}

TEST(Kmeans, ProcessRejectsMisshapedRobj) {
  PointGenSpec spec;
  spec.count = 20;
  spec.dim = 3;
  const auto data = generate_points(spec);
  KmeansTask task({{0, 0, 0}, {1, 1, 1}});
  const auto small = api::make_vector_sum(3);  // needs 2 * (3 + 1)
  EXPECT_THROW(task.process(data.data(), data.units(), *small), std::out_of_range);
  const auto min_fold = api::make_vector_min(8);  // right size, wrong fold
  EXPECT_THROW(task.process(data.data(), data.units(), *min_fold), std::out_of_range);
}

TEST(Kmeans, RejectsBadCentroids) {
  EXPECT_THROW(KmeansTask({}), std::invalid_argument);
  EXPECT_THROW(KmeansTask({{1.0f, 2.0f}, {1.0f}}), std::invalid_argument);
}

// --- pagerank ------------------------------------------------------------------------

std::vector<double> brute_force_pagerank_step(const MemoryDataset& edges,
                                              const std::vector<double>& ranks,
                                              const std::vector<std::uint32_t>& deg,
                                              double damping) {
  std::vector<double> mass(ranks.size(), 0.0);
  for (std::size_t i = 0; i < edges.units(); ++i) {
    EdgeRecord e;
    std::memcpy(&e, edges.unit(i), sizeof e);
    mass[e.dst] += ranks[e.src] / deg[e.src];
  }
  const double base = (1.0 - damping) / static_cast<double>(ranks.size());
  for (auto& m : mass) m = base + damping * m;
  return mass;
}

TEST(PageRank, GrMatchesBruteForce) {
  GraphGenSpec spec;
  spec.pages = 500;
  spec.edges = 5000;
  spec.seed = 6;
  const auto edges = generate_edges(spec);
  const auto deg = out_degrees(edges, spec.pages);
  std::vector<double> ranks(spec.pages, 1.0 / spec.pages);

  PageRankTask task(ranks, deg);
  GrEngineOptions options;
  options.threads = 4;
  const auto robj = gr_run(task, edges, options);
  const auto got = task.ranks_from(*robj);
  const auto expected = brute_force_pagerank_step(edges, ranks, deg, 0.85);
  for (std::size_t p = 0; p < spec.pages; ++p) EXPECT_NEAR(got[p], expected[p], 1e-12);
}

TEST(PageRank, MrMatchesGr) {
  GraphGenSpec spec;
  spec.pages = 300;
  spec.edges = 3000;
  spec.seed = 14;
  const auto edges = generate_edges(spec);
  const auto deg = out_degrees(edges, spec.pages);
  std::vector<double> ranks(spec.pages, 1.0 / spec.pages);
  PageRankTask task(ranks, deg);

  GrEngineOptions gr_options;
  gr_options.threads = 2;
  const auto gr_ranks = task.ranks_from(*gr_run(task, edges, gr_options));

  MrEngineOptions mr_options;
  mr_options.threads = 4;
  mr_options.use_combiner = true;
  const auto mr_ranks = task.ranks_from(mr_run(task, edges, mr_options));

  for (std::size_t p = 0; p < spec.pages; ++p) {
    EXPECT_NEAR(gr_ranks[p], mr_ranks[p], 1e-9);
  }
}

TEST(PageRank, RankMassIsConserved) {
  GraphGenSpec spec;
  spec.pages = 200;
  spec.edges = 2000;
  const auto edges = generate_edges(spec);
  const auto ranks = pagerank_iterate(edges, spec.pages, 10, 4);
  double total = 0.0;
  for (double r : ranks) {
    EXPECT_GT(r, 0.0);
    total += r;
  }
  // No dangling pages -> rank mass stays 1 under the damping update.
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PageRank, PopularPagesRankHigher) {
  GraphGenSpec spec;
  spec.pages = 500;
  spec.edges = 10000;
  spec.popularity_skew = 1.3;
  const auto edges = generate_edges(spec);
  const auto ranks = pagerank_iterate(edges, spec.pages, 15, 4);
  // Zipf popularity targets low page ids; their mean rank must exceed the
  // mean rank of the tail.
  double head = 0, tail = 0;
  for (std::uint32_t p = 0; p < 10; ++p) head += ranks[p];
  for (std::uint32_t p = 490; p < 500; ++p) tail += ranks[p];
  EXPECT_GT(head, 3 * tail);
}

TEST(PageRank, ProcessRejectsBadShapes) {
  GraphGenSpec spec;
  spec.pages = 50;
  spec.edges = 400;
  const auto edges = generate_edges(spec);
  PageRankTask task(std::vector<double>(50, 0.02), out_degrees(edges, 50));
  const auto small = api::make_vector_sum(1);
  EXPECT_THROW(task.process(edges.data(), edges.units(), *small), std::out_of_range);

  const EdgeRecord bad{3, 50};  // destination past the last page
  const auto robj = task.create_robj();
  EXPECT_THROW(task.process(reinterpret_cast<const std::byte*>(&bad), 1, *robj),
               std::out_of_range);
}

TEST(PageRank, RejectsBadInputs) {
  EXPECT_THROW(PageRankTask({}, {}), std::invalid_argument);
  EXPECT_THROW(PageRankTask({1.0}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(PageRankTask({1.0}, {1}, 1.5), std::invalid_argument);
}

// --- kernel pins -------------------------------------------------------------------
//
// Each real kernel's serialized reduction object (and, for the MR side, its
// emitted pairs) folded into a 64-bit FNV-1a digest. The tasks run through a
// fixed chunking with several process() calls per chunk and chunk robjs
// merged in chunk order, so the digests are deterministic and any change to
// a kernel's floating-point result, heap layout or key set fails here. The
// word marker runs cross both call and chunk boundaries; kmeans covers tied
// and NaN centroids and a k > 64 case.

/// 64-bit FNV-1a over bytes or the little-endian bytes of 64-bit words.
class Fnv {
 public:
  void add_byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ull;
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) add_byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string robj_digest(const api::ReductionObject& robj) {
  BufferWriter writer;
  robj.serialize(writer);
  Fnv h;
  for (const std::uint8_t byte : writer.take()) h.add_byte(byte);
  return h.hex();
}

/// One robj per `chunk_units` chunk, filled by process() calls of at most
/// `call_units` units, merged into the result in chunk order, then finalized.
api::RobjPtr fold_chunks(const api::GRTask& task, const MemoryDataset& data,
                         std::size_t chunk_units, std::size_t call_units) {
  api::RobjPtr global = task.create_robj();
  for (std::size_t begin = 0; begin < data.units(); begin += chunk_units) {
    const std::size_t end = std::min(data.units(), begin + chunk_units);
    api::RobjPtr local = task.create_robj();
    for (std::size_t at = begin; at < end; at += call_units) {
      task.process(data.unit(at), std::min(call_units, end - at), *local);
    }
    global->merge_from(*local);
  }
  task.finalize(*global);
  return global;
}

/// Digest of every (key, value) pair map() emits over the whole dataset.
class DigestEmitter final : public api::Emitter {
 public:
  void emit(std::uint64_t key, std::vector<double> value) override {
    fnv.add(key);
    fnv.add(std::uint64_t{value.size()});
    for (const double v : value) fnv.add(v);
  }
  Fnv fnv;
};

std::string map_digest(const api::MRTask& task, const MemoryDataset& data,
                       std::size_t call_units) {
  DigestEmitter emitter;
  for (std::size_t at = 0; at < data.units(); at += call_units) {
    task.map(data.unit(at), std::min(call_units, data.units() - at), emitter);
  }
  return emitter.fnv.hex();
}

TEST(KernelPin, WordCountMarkerRuns) {
  // Runs of 50 equal ids; ids recur non-adjacently. Chunks of 37 units and
  // calls of 11 split most runs.
  std::vector<WordRecord> records;
  for (std::uint64_t run = 0; run < 400; ++run) {
    records.resize(records.size() + 50, WordRecord{(run * 7) % 53});
  }
  const auto data = MemoryDataset::from_records(records);
  WordCountTask task;
  const auto robj = fold_chunks(task, data, 37, 11);
  EXPECT_EQ(dynamic_cast<const api::HashCountRobj&>(*robj).distinct_keys(), 53u);
  EXPECT_EQ(robj_digest(*robj), "6371506bea1cf8e5");
  EXPECT_EQ(robj_digest(*fold_chunks(task, data, data.units(), data.units())),
            robj_digest(*robj));
}

TEST(KernelPin, WordCountZipf) {
  WordGenSpec spec;
  spec.count = 30000;
  spec.vocabulary = 800;
  spec.seed = 21;
  const auto data = generate_words(spec);
  WordCountTask task;
  EXPECT_EQ(robj_digest(*fold_chunks(task, data, 4000, 999)), "753bf3dbae35362a");
  EXPECT_EQ(map_digest(task, data, 999), "f26bf94607cf8f2c");
}

TEST(KernelPin, Kmeans) {
  PointGenSpec spec;
  spec.count = 3000;
  spec.dim = 5;
  spec.mixture_components = 4;
  spec.seed = 17;
  const auto data = generate_points(spec);
  // Centroids 1 and 3 tie (first wins); centroid 4 is NaN and never wins.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  KmeansTask task({{0, 0, 0, 0, 0},
                   {8, -3, 2, 5, 1},
                   {-6, 4, 4, -2, 0},
                   {8, -3, 2, 5, 1},
                   {nan, 0, 0, 0, 0},
                   {-1.5f, 9, -7, 3, 2.25f}});
  const auto robj = fold_chunks(task, data, 700, 256);
  const auto& sums = dynamic_cast<const api::VectorFoldRobj&>(*robj);
  EXPECT_GT(sums.at(1 * 6 + 5), 0.0);   // centroid 1 takes its points...
  EXPECT_EQ(sums.at(3 * 6 + 5), 0.0);   // ...so its twin takes none
  EXPECT_EQ(sums.at(4 * 6 + 5), 0.0);   // the NaN centroid never wins
  EXPECT_EQ(robj_digest(*robj), "bde5410936b46f3a");
  EXPECT_EQ(map_digest(task, data, 256), "47942547cd3760e9");
}

TEST(KernelPin, KmeansManyCentroids) {
  PointGenSpec spec;
  spec.count = 4000;
  spec.dim = 3;
  spec.mixture_components = 10;
  spec.seed = 23;
  const auto data = generate_points(spec);
  // k = 80 > 64: centroids on a grid through the mixture's span.
  std::vector<std::vector<float>> centroids;
  for (int c = 0; c < 80; ++c) {
    centroids.push_back({static_cast<float>(c % 5) * 6.0f - 12.0f,
                         static_cast<float>((c / 5) % 4) * 7.0f - 10.5f,
                         static_cast<float>(c / 20) * 5.5f - 8.25f});
  }
  KmeansTask task(centroids);
  EXPECT_EQ(robj_digest(*fold_chunks(task, data, 900, 300)), "38092d1deac084b6");
  EXPECT_EQ(map_digest(task, data, 300), "ad48257f79419033");
}

TEST(KernelPin, Knn) {
  PointGenSpec spec;
  spec.count = 5000;
  spec.dim = 6;
  spec.seed = 29;
  auto data = generate_points(spec);
  KnnTask task(16, std::vector<float>(6, 0.25f));
  EXPECT_EQ(robj_digest(*fold_chunks(task, data, 1200, 333)), "6775390f195868b2");

  // Every point at one spot: all distances tie and ids break them.
  std::vector<std::byte> same(data.size_bytes());
  const float coords[6] = {1, 2, 3, 4, 5, 6};
  for (std::size_t i = 0; i < data.units(); ++i) {
    write_point(same.data() + i * data.unit_bytes(), data.units() - i, coords, 6);
  }
  const MemoryDataset tied(std::move(same), data.unit_bytes());
  EXPECT_EQ(robj_digest(*fold_chunks(task, tied, 1200, 333)), "8ed6df8bab1bb145");
}

TEST(KernelPin, PageRank) {
  GraphGenSpec spec;
  spec.pages = 700;
  spec.edges = 9000;
  spec.seed = 31;
  const auto edges = generate_edges(spec);
  const auto degrees = out_degrees(edges, spec.pages);
  std::vector<double> ranks(spec.pages);
  double total = 0.0;
  for (std::uint32_t p = 0; p < spec.pages; ++p) total += ranks[p] = 1.0 + (p % 13) * 0.37;
  for (double& r : ranks) r /= total;
  PageRankTask task(ranks, degrees);
  EXPECT_EQ(robj_digest(*fold_chunks(task, edges, 2000, 512)), "e44c0d2218185ab6");
  EXPECT_EQ(map_digest(task, edges, 512), "b02163dca840ff3c");
}

TEST(KernelPin, VectorFoldMerges) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> a = {0.0, -0.0, nan, 1.5, -inf, 0.0, nan, 3.0, -0.0};
  const std::vector<double> b = {-0.0, 0.0, 2.0, nan, 7.0, 0.0, nan, -3.0, -0.0};
  const std::pair<api::VectorFold, const char*> cases[] = {
      {api::VectorFold::Sum, "c5d26b980155d3e4"},
      {api::VectorFold::Min, "545082337e5d0080"},
      {api::VectorFold::Max, "a95a9a701f2d57b1"}};
  for (const auto& [fold, digest] : cases) {
    api::VectorFoldRobj x(a.size(), fold), y(a.size(), fold);
    for (std::size_t i = 0; i < a.size(); ++i) {
      x.accumulate(i, a[i]);
      y.accumulate(i, b[i]);
    }
    api::VectorFoldRobj xy(a.size(), fold), yx(a.size(), fold);
    xy.merge_from(x);
    xy.merge_from(y);
    yx.merge_from(y);
    yx.merge_from(x);
    Fnv h;
    for (const auto* robj : {&x, &y, &xy, &yx}) {
      for (const char c : robj_digest(*robj)) h.add_byte(static_cast<std::uint8_t>(c));
    }
    EXPECT_EQ(h.hex(), digest) << static_cast<int>(fold);
  }
}

// --- generator bytes -----------------------------------------------------------------
// Page counts and vocabularies run from 2 to 100000, s = 1.0 takes the Zipf
// sampler's log/exp branch, and the 200000-edge and 50000-word cases span
// several kDatagenBlockRecords blocks.

std::string bytes_digest(const MemoryDataset& data) {
  Fnv h;
  h.add(std::uint64_t{data.unit_bytes()});
  h.add(std::uint64_t{data.units()});
  for (std::size_t i = 0; i < data.size_bytes(); ++i) {
    h.add_byte(static_cast<std::uint8_t>(data.data()[i]));
  }
  return h.hex();
}

GraphGenSpec edge_spec(std::uint32_t pages, std::uint64_t edges, std::uint64_t seed) {
  GraphGenSpec spec;
  spec.pages = pages;
  spec.edges = edges;
  spec.seed = seed;
  return spec;
}

WordGenSpec word_spec(std::uint64_t vocabulary, double zipf_s, std::size_t count = 50000) {
  WordGenSpec spec;
  spec.count = count;
  spec.vocabulary = vocabulary;
  spec.zipf_s = zipf_s;
  spec.seed = 11;
  return spec;
}

PointGenSpec point_spec(std::size_t count, std::size_t dim, std::size_t components,
                        std::uint64_t seed) {
  PointGenSpec spec;
  spec.count = count;
  spec.dim = dim;
  spec.mixture_components = components;
  spec.seed = seed;
  return spec;
}

const std::pair<GraphGenSpec, const char*> kEdgePins[] = {
    {edge_spec(2, 50, 3), "c5bb817029a5530f"},
    {edge_spec(1000, 20000, 7), "e521905e8c4eb89b"},
    {edge_spec(50000, 200000, 8), "cac1d424da6cbc29"}};

const std::pair<WordGenSpec, const char*> kWordPins[] = {
    {word_spec(1, 1.05), "b4aedca2aaa15b6c"},
    {word_spec(2000, 1.05), "6e6575d55bb8c43c"},
    {word_spec(100000, 1.05), "7b1744932440894e"},
    {word_spec(2000, 1.0), "5ee51c772fe30c80"},
    {word_spec(100000, 1.0), "c8334e18cc65cd88"}};

const std::pair<PointGenSpec, const char*> kPointPin = {point_spec(5000, 6, 5, 13),
                                                        "2a0ae0fb04236c38"};

TEST(DatagenPin, Edges) {
  for (const auto& [spec, digest] : kEdgePins) {
    EXPECT_EQ(bytes_digest(generate_edges(spec)), digest) << spec.pages;
  }
}

TEST(DatagenPin, Words) {
  for (const auto& [spec, digest] : kWordPins) {
    EXPECT_EQ(bytes_digest(generate_words(spec)), digest)
        << spec.vocabulary << " " << spec.zipf_s;
  }
}

TEST(DatagenPin, Points) {
  EXPECT_EQ(bytes_digest(generate_points(kPointPin.first)), kPointPin.second);
}

TEST(DatagenPin, BytesIndependentOfWorkerCount) {
  // Every pinned spec, plus one spec per generator whose blocks do not
  // divide its records evenly; the edge spec's guaranteed out-edges also
  // cross a block boundary.
  const std::size_t block = kDatagenBlockRecords;
  std::vector<PointGenSpec> points = {kPointPin.first, point_spec(2 * block + 77, 3, 8, 14)};
  std::vector<GraphGenSpec> graphs = {
      edge_spec(static_cast<std::uint32_t>(block + 100), 3 * block + 1, 9)};
  for (const auto& pin : kEdgePins) graphs.push_back(pin.first);
  std::vector<WordGenSpec> words = {word_spec(5000, 1.1, 2 * block + 1)};
  for (const auto& pin : kWordPins) words.push_back(pin.first);

  struct RestoreWorkers {
    ~RestoreWorkers() { set_datagen_workers_for_test(0); }
  } restore;
  const auto generate_all = [&](std::size_t workers) {
    set_datagen_workers_for_test(workers);
    std::vector<std::vector<std::byte>> out;
    const auto keep = [&out](const MemoryDataset& data) {
      out.emplace_back(data.data(), data.data() + data.size_bytes());
    };
    for (const auto& spec : points) keep(generate_points(spec));
    for (const auto& spec : graphs) keep(generate_edges(spec));
    for (const auto& spec : words) keep(generate_words(spec));
    return out;
  };
  const auto one = generate_all(1);
  const auto four = generate_all(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) EXPECT_TRUE(one[i] == four[i]) << "case " << i;
}

// --- records -----------------------------------------------------------------------

TEST(Records, PointRoundTrip) {
  std::vector<std::byte> buf(point_record_bytes(3));
  const float coords[3] = {1.5f, -2.5f, 3.5f};
  write_point(buf.data(), 42, coords, 3);
  EXPECT_EQ(point_id(buf.data()), 42u);
  const float* back = point_coords(buf.data());
  EXPECT_EQ(back[0], 1.5f);
  EXPECT_EQ(back[1], -2.5f);
  EXPECT_EQ(back[2], 3.5f);
}

}  // namespace
}  // namespace cloudburst::apps
