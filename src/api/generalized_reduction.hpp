// The Generalized Reduction programming API (paper §III-A).
//
// An application supplies three things:
//  * a reduction object (create_robj),
//  * a local reduction: process a run of data units, folding each element
//    into the robj immediately — no intermediate (key, value) pairs,
//  * a global reduction: ReductionObject::merge_from (or one of the library
//    combiners).
// The runtime owns everything else: the order units are processed in, how
// many units form a cache-sized group, which thread/node/cluster processes
// which chunk, and when robj copies are merged.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "api/reduction_object.hpp"

namespace cloudburst::api {

class GRTask {
 public:
  virtual ~GRTask() = default;

  virtual std::string name() const = 0;

  /// Size of one atomic data unit in bytes (the layout's element stride).
  virtual std::size_t unit_bytes() const = 0;

  /// A fresh reduction object (the identity element).
  virtual RobjPtr create_robj() const = 0;

  /// Local reduction: fold `unit_count` consecutive units starting at `data`
  /// into `robj`. Must be insensitive to the order in which disjoint unit
  /// runs are processed (the runtime decides scheduling).
  virtual void process(const std::byte* data, std::size_t unit_count,
                       ReductionObject& robj) const = 0;

  /// Optional post-processing once the global reduction is complete (e.g.
  /// kmeans divides sums by counts). Default: nothing.
  virtual void finalize(ReductionObject& robj) const { (void)robj; }

  /// True when process() reads only its input units and writes only its
  /// robj: no other state, no logging, no shared counters. The middleware
  /// may then run a slave's process() calls on a host worker thread, in
  /// order, beside the simulation. Default false: every call runs inline.
  virtual bool concurrent_process() const { return false; }
};

}  // namespace cloudburst::api
