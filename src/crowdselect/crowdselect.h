// Umbrella header for the crowdselect library: task-driven crowd-selection
// query processing (EDBT 2015 reproduction).
//
// Quickstart:
//   CrowdDatabase db;                       // the crowdsourcing database
//   ... insert workers / tasks / feedback ...
//   auto manager = CrowdManager(&db,
//       std::make_unique<TdpmSelector>(TdpmOptions{.num_categories = 10}));
//   manager.InferCrowdModel();              // Algorithm 2
//   auto crowd = manager.SelectCrowd(task_bag, /*k=*/3);  // Algorithm 3
#ifndef CROWDSELECT_CROWDSELECT_CROWDSELECT_H_
#define CROWDSELECT_CROWDSELECT_CROWDSELECT_H_

#include "baselines/drm.h"    // IWYU pragma: export
#include "baselines/lda.h"    // IWYU pragma: export
#include "baselines/plsa.h"   // IWYU pragma: export
#include "baselines/tspm.h"   // IWYU pragma: export
#include "baselines/vsm.h"    // IWYU pragma: export
#include "crowddb/crowd_database.h"      // IWYU pragma: export
#include "crowddb/crowd_manager.h"       // IWYU pragma: export
#include "crowddb/dispatcher.h"          // IWYU pragma: export
#include "crowddb/import_export.h"       // IWYU pragma: export
#include "crowddb/jsonl.h"               // IWYU pragma: export
#include "crowddb/online_pool.h"         // IWYU pragma: export
#include "crowddb/persistence.h"         // IWYU pragma: export
#include "crowddb/selector_interface.h"  // IWYU pragma: export
#include "crowddb/sharded_store.h"       // IWYU pragma: export
#include "crowddb/storage_engine.h"      // IWYU pragma: export
#include "crowddb/store_interface.h"     // IWYU pragma: export
#include "crowddb/wal.h"                 // IWYU pragma: export
#include "datagen/groups.h"         // IWYU pragma: export
#include "datagen/heterogeneous.h"  // IWYU pragma: export
#include "datagen/platform.h"       // IWYU pragma: export
#include "datagen/world.h"          // IWYU pragma: export
#include "eval/bootstrap.h"    // IWYU pragma: export
#include "eval/experiment.h"   // IWYU pragma: export
#include "eval/model_selection.h"  // IWYU pragma: export
#include "eval/metrics.h"      // IWYU pragma: export
#include "eval/reporter.h"     // IWYU pragma: export
#include "eval/split.h"        // IWYU pragma: export
#include "model/crowd_model.h"       // IWYU pragma: export
#include "model/task_clustering.h"   // IWYU pragma: export
#include "model/exploration.h" // IWYU pragma: export
#include "model/fold_in.h"     // IWYU pragma: export
#include "model/incremental_update.h"  // IWYU pragma: export
#include "model/generative.h"  // IWYU pragma: export
#include "model/model_io.h"    // IWYU pragma: export
#include "model/selection.h"   // IWYU pragma: export
#include "model/variational.h" // IWYU pragma: export
#include "obs/alerts.h"         // IWYU pragma: export
#include "obs/metrics.h"        // IWYU pragma: export
#include "obs/stats_reporter.h" // IWYU pragma: export
#include "obs/timeseries.h"     // IWYU pragma: export
#include "obs/trace.h"          // IWYU pragma: export
#include "obs/window.h"         // IWYU pragma: export
#include "serve/foldin_cache.h"      // IWYU pragma: export
#include "serve/quality_monitor.h"   // IWYU pragma: export
#include "serve/router.h"            // IWYU pragma: export
#include "serve/selection_engine.h"  // IWYU pragma: export
#include "serve/skill_matrix.h"      // IWYU pragma: export
#include "serve/store_snapshot.h"    // IWYU pragma: export
#include "util/timer.h"        // IWYU pragma: export

#endif  // CROWDSELECT_CROWDSELECT_CROWDSELECT_H_
