// Synthetic dataset generators.
//
// The paper's 12 GB datasets are not public; these generators produce
// structurally equivalent inputs (see DESIGN.md): Gaussian-mixture points
// for knn/kmeans (so clustering has real structure), a Zipf-in-degree web
// graph with minimum out-degree 1 for pagerank (no dangling pages, matching
// the driver's damping treatment), and Zipf word streams for wordcount.
// Everything is deterministic from the spec. Each generator splits its
// records into blocks of kDatagenBlockRecords; block b draws from its own Rng
// substream keyed by (seed, generator, b) and writes its own byte range of
// the dataset, so blocks run in parallel and the bytes never depend on the
// worker count. Zipf draws come from one ZipfSampler per call
// (common/rng.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "apps/records.hpp"
#include "engine/memory_dataset.hpp"

namespace cloudburst::apps {

/// Records per generator block (DESIGN.md, "Synthetic data generation").
inline constexpr std::size_t kDatagenBlockRecords = 32768;

/// Runs every later generator call's blocks on `workers` threads (one runs
/// them inline); 0 restores the default, min(hardware_concurrency, blocks).
void set_datagen_workers_for_test(std::size_t workers);

struct PointGenSpec {
  std::size_t count = 0;
  std::size_t dim = 8;
  std::size_t mixture_components = 8;  ///< Gaussian mixture modes
  double component_spread = 10.0;      ///< distance scale between modes
  double noise_sigma = 1.0;            ///< within-mode spread
  std::uint64_t seed = 1;
};

/// Id-bearing point records; ids are the element index.
engine::MemoryDataset generate_points(const PointGenSpec& spec);

/// The mixture-mode centers the generator used (ground truth for tests).
std::vector<std::vector<float>> mixture_centers(const PointGenSpec& spec);

struct GraphGenSpec {
  std::uint32_t pages = 0;  ///< must be >= 2 (no self-loops)
  std::uint64_t edges = 0;  ///< must be >= pages (min out-degree 1)
  double popularity_skew = 1.1;  ///< Zipf exponent for destination popularity; finite, not in (-1, 0)
  std::uint64_t seed = 1;
};

/// Directed edges: every page gets one guaranteed out-edge, the rest go from
/// uniform sources to Zipf-popular destinations. No edge is a self-loop.
/// Throws std::invalid_argument on fewer than 2 pages, fewer edges than
/// pages, or a skew ZipfSampler rejects (non-finite or in (-1, 0)).
engine::MemoryDataset generate_edges(const GraphGenSpec& spec);

/// Out-degree per page for a generated edge set (pagerank needs it).
std::vector<std::uint32_t> out_degrees(const engine::MemoryDataset& edges,
                                       std::uint32_t pages);

struct WordGenSpec {
  std::size_t count = 0;
  std::uint64_t vocabulary = 10000;
  double zipf_s = 1.05;  ///< Zipf exponent of word popularity; finite, not in (-1, 0)
  std::uint64_t seed = 1;
};

/// Zipf-distributed word ids in [0, vocabulary). Throws
/// std::invalid_argument on a zero count or vocabulary or an exponent
/// ZipfSampler rejects (non-finite or in (-1, 0)).
engine::MemoryDataset generate_words(const WordGenSpec& spec);

}  // namespace cloudburst::apps
