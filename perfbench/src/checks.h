// Output checks. Each returns an empty string when the output is right
// and a one-line reason otherwise.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "crowddb/selector_interface.h"
#include "linalg/vector.h"
#include "serve/skill_matrix.h"

namespace perfbench {

/// `workers` holds exactly `k` distinct workers, each online.
std::string CheckDistinctOnline(const std::vector<crowdselect::WorkerId>& workers,
                                size_t k, const std::vector<char>& online);

/// `returned` is the top-k of `candidates` under a brute-force rescoring
/// from the snapshot's rows against `category`: scores match the rows,
/// order is score descending with ids ascending among equal scores, and
/// no unreturned candidate beats the k-th score by more than a small
/// relative tolerance (so a change in arithmetic order is not flagged).
std::string CheckTopK(const crowdselect::serve::SkillMatrixSnapshot& snapshot,
                      const crowdselect::Vector& category,
                      const std::vector<crowdselect::WorkerId>& candidates,
                      size_t k,
                      const std::vector<crowdselect::RankedWorker>& returned);

/// The true top-k of `candidates`: world skills against the task's true
/// category proportions, score descending, ids ascending among ties.
std::vector<crowdselect::WorkerId> TrueTopK(
    const std::vector<crowdselect::Vector>& true_skills,
    const crowdselect::Vector& proportions,
    const std::vector<crowdselect::WorkerId>& candidates, size_t k);

/// |returned ∩ truth| / k.
double PrecisionAtK(const std::vector<crowdselect::RankedWorker>& returned,
                    const std::vector<crowdselect::WorkerId>& truth, size_t k);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
