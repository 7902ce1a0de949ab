#include "apps/wordcount.hpp"

#include <cstring>
#include <stdexcept>

namespace cloudburst::apps {

api::RobjPtr WordCountTask::create_robj() const {
  return std::make_unique<api::HashCountRobj>();
}

namespace {

std::uint64_t word_at(const std::byte* data, std::size_t i) {
  WordRecord w;
  std::memcpy(&w, data + i * sizeof(WordRecord), sizeof w);
  return w.word_id;
}

}  // namespace

void WordCountTask::process(const std::byte* data, std::size_t unit_count,
                            api::ReductionObject& robj) const {
  auto& counts = dynamic_cast<api::HashCountRobj&>(robj);
  // In-mapper combining: a run of equal adjacent ids is one table update.
  // Exact, because a wordcount robj only ever holds integer counts below
  // 2^53, where adding the run length once equals adding 1.0 that often.
  if (unit_count == 0) return;
  std::uint64_t id = word_at(data, 0);
  std::size_t run_start = 0;
  for (std::size_t i = 1; i < unit_count; ++i) {
    const std::uint64_t next = word_at(data, i);
    if (next != id) {
      counts.add(id, static_cast<double>(i - run_start));
      id = next;
      run_start = i;
    }
  }
  counts.add(id, static_cast<double>(unit_count - run_start));
}

void WordCountTask::map(const std::byte* data, std::size_t unit_count,
                        api::Emitter& emit) const {
  for (std::size_t i = 0; i < unit_count; ++i) emit.emit(word_at(data, i), {1.0});
}

void WordCountTask::reduce(std::uint64_t key, const std::vector<std::vector<double>>& values,
                           api::Emitter& emit) const {
  double acc = 0.0;
  for (const auto& v : values) {
    if (v.size() != 1) throw std::invalid_argument("wordcount reduce: malformed value");
    acc += v[0];
  }
  emit.emit(key, {acc});
}

}  // namespace cloudburst::apps
