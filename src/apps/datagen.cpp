#include "apps/datagen.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace cloudburst::apps {
namespace {

/// Generator tags: the middle part of each block's substream key.
constexpr std::uint64_t kPointsStream = 0x9017;
constexpr std::uint64_t kEdgesStream = 0xed9e;
constexpr std::uint64_t kWordsStream = 0x30bd;

std::atomic<std::size_t> test_workers{0};  ///< 0: min(hardware_concurrency, blocks)

/// Runs fill(rng, begin, end) over records [0, count) in blocks of
/// kDatagenBlockRecords. Block b draws from its own substream keyed by
/// (seed, generator, b) and writes only its own records, so the bytes do not
/// depend on how many workers run the blocks. One worker runs them inline.
template <typename Fill>
void fill_blocks(std::size_t count, std::uint64_t seed, std::uint64_t generator,
                 const Fill& fill) {
  const std::size_t blocks = (count + kDatagenBlockRecords - 1) / kDatagenBlockRecords;
  const std::uint64_t block_seed = Rng::substream(seed, generator).next_u64();
  const auto run = [&](std::size_t b) {
    Rng rng = Rng::substream(block_seed, b);
    const std::size_t begin = b * kDatagenBlockRecords;
    fill(rng, begin, std::min(begin + kDatagenBlockRecords, count));
  };
  const std::size_t forced = test_workers.load();
  const std::size_t workers = std::min<std::size_t>(
      forced != 0 ? forced : std::max(1u, std::thread::hardware_concurrency()), blocks);
  if (workers <= 1) {
    for (std::size_t b = 0; b < blocks; ++b) run(b);
    return;
  }
  ThreadPool pool(workers);
  pool.parallel_for(blocks, 1, run);
}

}  // namespace

void set_datagen_workers_for_test(std::size_t workers) { test_workers.store(workers); }

std::vector<std::vector<float>> mixture_centers(const PointGenSpec& spec) {
  // Centers on a deterministic lattice-ish arrangement scaled by spread.
  Rng rng = Rng::substream(spec.seed, 0xce17e5);
  std::vector<std::vector<float>> centers(spec.mixture_components);
  for (auto& c : centers) {
    c.resize(spec.dim);
    for (auto& v : c) {
      v = static_cast<float>(rng.uniform(-spec.component_spread, spec.component_spread));
    }
  }
  return centers;
}

engine::MemoryDataset generate_points(const PointGenSpec& spec) {
  if (spec.count == 0 || spec.dim == 0 || spec.mixture_components == 0) {
    throw std::invalid_argument("generate_points: count, dim, components must be > 0");
  }
  const auto centers = mixture_centers(spec);
  const std::size_t unit = point_record_bytes(spec.dim);
  std::vector<std::byte> bytes(spec.count * unit);
  fill_blocks(spec.count, spec.seed, kPointsStream,
              [&](Rng& rng, std::size_t begin, std::size_t end) {
                std::vector<float> coords(spec.dim);
                for (std::size_t i = begin; i < end; ++i) {
                  const auto& center = centers[rng.next_below(centers.size())];
                  for (std::size_t d = 0; d < spec.dim; ++d) {
                    coords[d] = center[d] + static_cast<float>(rng.normal(0.0, spec.noise_sigma));
                  }
                  write_point(bytes.data() + i * unit, i, coords.data(), spec.dim);
                }
              });
  return engine::MemoryDataset(std::move(bytes), unit);
}

engine::MemoryDataset generate_edges(const GraphGenSpec& spec) {
  // One page cannot avoid a self-loop.
  if (spec.pages < 2) throw std::invalid_argument("generate_edges: pages must be >= 2");
  if (spec.edges < spec.pages) {
    throw std::invalid_argument("generate_edges: need at least one edge per page");
  }
  const ZipfSampler popularity(spec.pages, spec.popularity_skew);
  std::vector<std::byte> bytes(spec.edges * sizeof(EdgeRecord));
  fill_blocks(spec.edges, spec.seed, kEdgesStream,
              [&](Rng& rng, std::size_t begin, std::size_t end) {
                for (std::size_t e = begin; e < end; ++e) {
                  // Edge p < pages is page p's guaranteed out-edge (no
                  // dangling mass, see datagen.hpp); the rest have uniform
                  // sources.
                  const auto src = static_cast<std::uint32_t>(
                      e < spec.pages ? e : rng.next_below(spec.pages));
                  auto dst = static_cast<std::uint32_t>(popularity(rng));
                  if (dst == src) dst = (dst + 1) % spec.pages;  // no self-loop
                  const EdgeRecord record{src, dst};
                  std::memcpy(bytes.data() + e * sizeof record, &record, sizeof record);
                }
              });
  return engine::MemoryDataset(std::move(bytes), sizeof(EdgeRecord));
}

std::vector<std::uint32_t> out_degrees(const engine::MemoryDataset& edges,
                                       std::uint32_t pages) {
  if (edges.unit_bytes() != sizeof(EdgeRecord)) {
    throw std::invalid_argument("out_degrees: dataset is not an edge list");
  }
  std::vector<std::uint32_t> deg(pages, 0);
  for (std::size_t i = 0; i < edges.units(); ++i) {
    EdgeRecord e;
    std::memcpy(&e, edges.unit(i), sizeof e);
    if (e.src >= pages) throw std::out_of_range("out_degrees: edge source out of range");
    ++deg[e.src];
  }
  return deg;
}

engine::MemoryDataset generate_words(const WordGenSpec& spec) {
  if (spec.count == 0 || spec.vocabulary == 0) {
    throw std::invalid_argument("generate_words: count and vocabulary must be > 0");
  }
  const ZipfSampler popularity(spec.vocabulary, spec.zipf_s);
  std::vector<std::byte> bytes(spec.count * sizeof(WordRecord));
  fill_blocks(spec.count, spec.seed, kWordsStream,
              [&](Rng& rng, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                  const WordRecord w{popularity(rng)};
                  std::memcpy(bytes.data() + i * sizeof w, &w, sizeof w);
                }
              });
  return engine::MemoryDataset(std::move(bytes), sizeof(WordRecord));
}

}  // namespace cloudburst::apps
