// Bridges the sharded storage engine to the serving path: builds a
// SkillMatrixSnapshot by scanning the engine one shard at a time, each
// shard under its own reader lock — no global stop-the-world, concurrent
// writers to other shards keep going while the snapshot assembles. The
// snapshot constructor encodes the blocked scan panels
// (serve/kernels/score_kernel.h) as part of the build, so a store-backed
// snapshot serves through the SIMD kernel path like any other.
#ifndef CROWDSELECT_SERVE_STORE_SNAPSHOT_H_
#define CROWDSELECT_SERVE_STORE_SNAPSHOT_H_

#include <memory>

#include "crowddb/storage_engine.h"
#include "serve/skill_matrix.h"
#include "util/status.h"

namespace crowdselect::serve {

/// Flattens every worker's latent skill vector in `engine` into an
/// immutable snapshot (workers without trained skills get zero rows).
/// Fails with FailedPrecondition until some skills have been written
/// (latent dimension still unknown).
Result<std::shared_ptr<const SkillMatrixSnapshot>> BuildSnapshotFromStore(
    const CrowdStoreEngine& engine, uint64_t version = 1);

}  // namespace crowdselect::serve

#endif  // CROWDSELECT_SERVE_STORE_SNAPSHOT_H_
