// Control-plane protocol between head, masters, and slaves (paper Fig. 2).
//
//   slave  -> master : SlaveJobRequest        (on-demand pooling)
//   master -> slave  : AssignJob | NoMoreJobs
//   master -> head   : BatchRequest           (cluster pool refill)
//   head   -> master : BatchAssign            (locality/consecutive batch,
//                                              exhausted flag)
//   slave  -> master : SlaveRobj              (intra-cluster reduction)
//   master -> head   : MasterRobj             (global reduction input)
//   slave  -> master : ChunkReturned | NodeVacated  (graceful drain: hand
//                                              back unstarted work, flush the
//                                              final delta-robj checkpoint)
//
// Messages ride the simulated network: control messages charge a small
// fixed size, robj messages charge the robj's serialized size (or the
// profile's fixed robj_bytes) — which is why pagerank's global reduction is
// expensive across the WAN.
#pragma once

#include <cstdint>
#include <vector>

#include "api/reduction_object.hpp"
#include "storage/data_layout.hpp"

namespace cloudburst::middleware {

enum class MsgType : std::uint8_t {
  SlaveJobRequest,
  AssignJob,
  NoMoreJobs,
  BatchRequest,
  BatchAssign,
  SlaveRobj,
  MasterRobj,
  // Fault-tolerant (direct-reduction) protocol additions:
  JobDone,      ///< slave -> master: chunk finished (completion tracking)
  RobjRequest,  ///< master -> slave: ship your reduction object now
  // Node-lifecycle (graceful drain / spot reclamation) additions:
  ChunkReturned,  ///< draining slave -> master: hand an assigned chunk back unstarted
  NodeVacated,    ///< draining slave -> master: final delta-robj checkpoint + goodbye
};

struct Message {
  MsgType type = MsgType::SlaveJobRequest;

  /// Id of the job this message belongs to (the workload manager's 1-based
  /// job id; RunContext::send stamps it). The Postman routes on (endpoint,
  /// job), so a node running slave actors of several concurrent jobs hands
  /// each message to its own job's actor. Carried out of band — it adds
  /// nothing to the charged wire size.
  std::uint32_t job = 0;

  // AssignJob
  storage::ChunkId chunk = 0;

  /// AssignJob under replication: the replica store the master resolved for
  /// this chunk (kInvalidStore = read the layout primary). Out of band like
  /// `job` — the charged wire size does not change.
  storage::StoreId store = storage::kInvalidStore;

  // BatchRequest: jobs wanted. RobjRequest/SlaveRobj: checkpoint round id
  // (the slave echoes it so the master can tell a commit-round robj from a
  // periodic-checkpoint robj). MasterRobj: chunks granted since the
  // cluster's previous robj, all of which this one covers.
  std::uint32_t want = 0;

  // BatchAssign: the granted chunks. SlaveRobj: the chunks the robj covers
  // (those the slave finished since its previous robj), out of band like
  // `job`.
  std::vector<storage::ChunkId> batch;
  bool exhausted = false;

  /// BatchAssign only: head-driven reopen after a peer master's site went
  /// dark. The batch is that master's reclaimed (uncommitted) work, pushed
  /// unsolicited at a survivor; a master that already shipped its cluster
  /// robj re-opens its commit to cover the adopted chunks. Out of band like
  /// `job` — the charged wire size does not change.
  bool reopen = false;

  // SlaveRobj / MasterRobj / NodeVacated: the sender's reduction object
  // itself (null in a timing-only run). It moves through the simulated
  // network as an object, never as bytes; the transfer is charged at
  // robj_bytes, its serialized size (byte_size()), set when it is packed.
  api::RobjPtr robj;
  std::uint64_t robj_bytes = 0;
};

/// Declared wire size of a control message (bytes charged to the network).
constexpr std::uint64_t kControlMessageBytes = 256;

}  // namespace cloudburst::middleware
