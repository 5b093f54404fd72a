#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace perfbench {

using crowdselect::RankedWorker;
using crowdselect::Vector;
using crowdselect::WorkerId;

namespace {

// Relative tolerance for comparing a returned score with its brute-force
// recomputation: far above the rounding a reordered K-term dot product
// can introduce, far below any real score gap.
constexpr double kRelTolerance = 1e-9;

double Tolerance(double score) {
  return kRelTolerance * std::max(1.0, std::fabs(score));
}

bool RanksBefore(const RankedWorker& a, const RankedWorker& b) {
  return a.score > b.score || (a.score == b.score && a.worker < b.worker);
}

std::string Reason(const char* fmt, unsigned long long a, double b = 0.0,
                   double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

}  // namespace

std::string CheckDistinctOnline(const std::vector<WorkerId>& workers, size_t k,
                                const std::vector<char>& online) {
  if (workers.size() != k) {
    return Reason("returned %llu workers, expected k", workers.size());
  }
  std::unordered_set<WorkerId> seen;
  for (WorkerId w : workers) {
    if (w >= online.size() || online[w] == 0) {
      return Reason("worker %llu is not online", w);
    }
    if (!seen.insert(w).second) return Reason("worker %llu returned twice", w);
  }
  return "";
}

std::string CheckTopK(const crowdselect::serve::SkillMatrixSnapshot& snapshot,
                      const Vector& category,
                      const std::vector<WorkerId>& candidates, size_t k,
                      const std::vector<RankedWorker>& returned) {
  const size_t dims = snapshot.num_categories();
  if (category.size() != dims) return "fold-in category has the wrong size";
  if (returned.size() != std::min(k, candidates.size())) {
    return Reason("returned %llu workers, expected min(k, candidates)",
                  returned.size());
  }
  std::vector<double> brute(snapshot.num_workers(), 0.0);
  std::vector<char> is_candidate(snapshot.num_workers(), 0);
  for (WorkerId w : candidates) {
    if (w >= snapshot.num_workers()) return Reason("candidate %llu unknown", w);
    const double* row = snapshot.RowPtr(w);
    double s = 0.0;
    for (size_t d = 0; d < dims; ++d) s += row[d] * category[d];
    brute[w] = s;
    is_candidate[w] = 1;
  }
  std::vector<char> is_returned(snapshot.num_workers(), 0);
  for (size_t i = 0; i < returned.size(); ++i) {
    const RankedWorker& r = returned[i];
    if (r.worker >= snapshot.num_workers() || is_candidate[r.worker] == 0) {
      return Reason("returned worker %llu is not a candidate", r.worker);
    }
    if (std::fabs(r.score - brute[r.worker]) > Tolerance(brute[r.worker])) {
      return Reason("worker %llu scored %.17g, brute force gives %.17g",
                    r.worker, r.score, brute[r.worker]);
    }
    if (i > 0 && !RanksBefore(returned[i - 1], r)) {
      return Reason("rank %llu is out of (score desc, id asc) order", i);
    }
    is_returned[r.worker] = 1;
  }
  if (returned.empty()) return "";
  const double kth = returned.back().score;
  for (WorkerId w : candidates) {
    if (is_returned[w] == 0 && brute[w] - kth > Tolerance(kth)) {
      return Reason("unreturned worker %llu scores %.17g above the k-th %.17g",
                    w, brute[w], kth);
    }
  }
  return "";
}

std::vector<WorkerId> TrueTopK(const std::vector<Vector>& true_skills,
                               const Vector& proportions,
                               const std::vector<WorkerId>& candidates,
                               size_t k) {
  std::vector<RankedWorker> scored;
  scored.reserve(candidates.size());
  for (WorkerId w : candidates) {
    scored.push_back({w, true_skills[w].Dot(proportions)});
  }
  const size_t n = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + n, scored.end(),
                    RanksBefore);
  std::vector<WorkerId> top;
  for (size_t i = 0; i < n; ++i) top.push_back(scored[i].worker);
  return top;
}

double PrecisionAtK(const std::vector<RankedWorker>& returned,
                    const std::vector<WorkerId>& truth, size_t k) {
  size_t hits = 0;
  for (const RankedWorker& r : returned) {
    if (std::find(truth.begin(), truth.end(), r.worker) != truth.end()) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

}  // namespace perfbench
