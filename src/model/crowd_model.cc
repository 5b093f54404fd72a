#include "model/crowd_model.h"

#include "model/selection.h"
#include "obs/metrics.h"
#include "serve/router.h"
#include "util/string_util.h"

namespace crowdselect {

namespace {

/// Per-cluster TDPM members behind a similarity router.
std::unique_ptr<CrowdModel> MakeRouter(const ModelConfig& config) {
  serve::RouterOptions options;
  options.seed = config.tdpm.seed;
  auto router = std::make_unique<serve::TaskTypeRouter>(options);
  const size_t members =
      config.router_num_clusters > 0 ? config.router_num_clusters : 1;
  for (size_t m = 0; m < members; ++m) {
    // Distinct seeds so members do not mirror each other's EM paths on
    // identical sub-corpora.
    TdpmOptions member = config.tdpm;
    member.seed = config.tdpm.seed + m;
    router->AddModel(std::make_unique<TdpmSelector>(member, config.serve));
  }
  return router;
}

}  // namespace

bool IsCrowdModelId(const std::string& id) {
  return id == "tdpm" || id == "router";
}

Result<std::unique_ptr<CrowdModel>> CreateCrowdModel(
    const std::string& id, const ModelConfig& config) {
  static obs::Counter* created =
      obs::MetricsRegistry::Global().GetCounter("model.created");
  std::unique_ptr<CrowdModel> model;
  if (id == "tdpm") {
    model = std::make_unique<TdpmSelector>(config.tdpm, config.serve);
  } else if (id == "router") {
    model = MakeRouter(config);
  } else {
    return Status::NotFound(StringPrintf(
        "unknown crowd model \"%s\" (known: router, tdpm)", id.c_str()));
  }
  created->Increment();
  return model;
}

}  // namespace crowdselect
