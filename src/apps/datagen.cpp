#include "apps/datagen.hpp"

#include <cstring>
#include <stdexcept>

#include "common/rng.hpp"

namespace cloudburst::apps {

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

  Rng rng = Rng::substream(spec.seed, 0x9017);
  std::vector<float> coords(spec.dim);
  for (std::size_t i = 0; i < spec.count; ++i) {
    const auto& center = centers[rng.next_below(centers.size())];
    for (std::size_t d = 0; d < spec.dim; ++d) {
      coords[d] = center[d] + static_cast<float>(rng.normal(0.0, spec.noise_sigma));
    }
    write_point(bytes.data() + i * unit, i, coords.data(), spec.dim);
  }
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
  std::byte* out = bytes.data();
  const auto emit = [&out, &spec](std::uint32_t src, std::uint32_t dst) {
    if (dst == src) dst = (dst + 1) % spec.pages;  // no self-loop
    const EdgeRecord e{src, dst};
    std::memcpy(out, &e, sizeof e);
    out += sizeof e;
  };

  Rng rng = Rng::substream(spec.seed, 0xed9e);
  // Guaranteed out-edge per page (no dangling mass, see datagen.hpp).
  for (std::uint32_t p = 0; p < spec.pages; ++p) {
    emit(p, static_cast<std::uint32_t>(popularity(rng)));
  }
  for (std::uint64_t e = spec.pages; e < spec.edges; ++e) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(spec.pages));
    emit(src, static_cast<std::uint32_t>(popularity(rng)));
  }
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
  Rng rng = Rng::substream(spec.seed, 0x30bd);
  for (std::size_t i = 0; i < spec.count; ++i) {
    const WordRecord w{popularity(rng)};
    std::memcpy(bytes.data() + i * sizeof w, &w, sizeof w);
  }
  return engine::MemoryDataset(std::move(bytes), sizeof(WordRecord));
}

}  // namespace cloudburst::apps
