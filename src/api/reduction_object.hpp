// Reduction objects.
//
// The central abstraction of the Generalized Reduction API (paper §III-A):
// an application-defined accumulator that is
//  * updated in place after each data element (local reduction),
//  * cloned empty per processing thread / node,
//  * merged pairwise during the global reduction phase,
//  * handed to the next reducer when it crosses node and cluster
//    boundaries: the simulated middleware moves the object itself and
//    charges the network its byte_size() — pagerank's very large robj is
//    the source of its sync overhead.
// Memory allocation and access are managed by the runtime, per the paper;
// applications only define the update and merge rules.
#pragma once

#include <cstdint>
#include <memory>

#include "common/serialize.hpp"

namespace cloudburst::api {

class ReductionObject {
 public:
  virtual ~ReductionObject() = default;

  /// A fresh object of the same shape holding the reduction identity
  /// (so merge(clone_empty(), x) == x).
  virtual std::unique_ptr<ReductionObject> clone_empty() const = 0;

  /// Global reduction step: fold `other` into *this. Must be associative
  /// and commutative across objects produced from disjoint element sets —
  /// the runtime chooses the merge order.
  virtual void merge_from(const ReductionObject& other) = 0;

  /// Exactly the number of bytes serialize() writes. The middleware charges
  /// every robj transfer at this size without serializing the object.
  virtual std::uint64_t byte_size() const = 0;

  /// The robj's bytes, for storage and comparison (results, tests); the
  /// in-process middleware hand-off does not use them. deserialize reads
  /// what serialize wrote into an object of the same shape.
  virtual void serialize(BufferWriter& out) const = 0;
  virtual void deserialize(BufferReader& in) = 0;
};

using RobjPtr = std::unique_ptr<ReductionObject>;

}  // namespace cloudburst::api
