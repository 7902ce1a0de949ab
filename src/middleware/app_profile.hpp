// Application cost profiles for the simulated distributed runs.
//
// The middleware schedules *chunks*; what an application contributes to the
// timing model is captured here: how fast a reference core chews through
// chunk bytes, how large its reduction object is (the robj crosses the LAN
// slave->master and the WAN master->head during the global reduction), and
// how fast robjs merge. Profiles for the paper's three applications are in
// apps/profiles.hpp, calibrated against the real kernels and the paper's
// reported ratios (see DESIGN.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

namespace cloudburst::middleware {

struct AppProfile {
  std::string name;
  std::uint64_t unit_bytes = 1;

  /// Processing throughput of one reference-speed core (bytes/second).
  /// A chunk takes chunk.bytes / (rate * node.cores * node.core_speed).
  double bytes_per_second_per_core = 0.0;

  /// Serialized reduction-object size (bytes) — transferred during the
  /// global reduction phase.
  std::uint64_t robj_bytes = 0;

  /// Merge throughput when folding one robj into another (bytes/second of
  /// robj); models the head's "combining and calculating the final
  /// reduction object" cost.
  double merge_bytes_per_second = 2e9;

  /// Fixed per-job overhead (job setup, buffer management), seconds.
  double per_job_overhead_seconds = 0.002;

  /// Stored-data compression (the authors' follow-on research direction:
  /// data reduction for data-intensive computing). Chunks are stored and
  /// transferred at bytes / compression_ratio; every fetched chunk pays
  /// decompression at this rate per core before processing. 1.0 = off.
  double compression_ratio = 1.0;
  double decompress_bytes_per_second_per_core = 400e6;

  /// Bytes a robj costs on the wire: the profile's fixed size, or (0) the
  /// real serialized payload, never below 64 bytes.
  std::uint64_t robj_wire_bytes(std::size_t payload_bytes) const {
    return robj_bytes ? robj_bytes : std::max<std::uint64_t>(payload_bytes, 64);
  }

  /// Seconds folding a robj of `bytes` into another takes.
  double merge_seconds(std::uint64_t bytes) const {
    return merge_bytes_per_second > 0.0
               ? static_cast<double>(bytes) / merge_bytes_per_second
               : 0.0;
  }

  /// Bytes a stored chunk of `bytes` moves (and occupies in a cache):
  /// shrunk by the compression ratio, never below one byte.
  std::uint64_t chunk_wire_bytes(std::uint64_t bytes) const {
    const double ratio = std::max(1.0, compression_ratio);
    return std::max<std::uint64_t>(
        static_cast<std::uint64_t>(static_cast<double>(bytes) / ratio), 1);
  }
};

}  // namespace cloudburst::middleware
