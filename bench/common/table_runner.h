// Drivers shared by the table-reproduction benches: each bench binary is a
// thin main() that names its platform and paper table/figure.
#ifndef CROWDSELECT_BENCH_COMMON_TABLE_RUNNER_H_
#define CROWDSELECT_BENCH_COMMON_TABLE_RUNNER_H_

#include <string>

#include "common/bench_util.h"

namespace crowdselect::bench {

/// Reproduces a precision table (paper Tables 3/5/7): ACCU for
/// VSM/TSPM/DRM/TDPM over three groups x K in {10..50}. Returns 1 unless
/// TDPM has the highest ACCU in every column (the table's claim).
int RunPrecisionTable(Platform platform, const std::string& table_name);

/// Reproduces a recall table (paper Tables 4/6/8): Top1/Top2 for the four
/// algorithms over five groups at the default K. Returns 1 unless TDPM
/// has the highest Top1 and the highest Top2 in every group (the table's
/// claim).
int RunRecallTable(Platform platform, const std::string& table_name);

/// Reproduces a crowd-statistics figure (paper Figs. 3/5/7): task
/// coverage and group size per participation threshold.
int RunCrowdStatsFigure(Platform platform, const std::string& figure_name);

}  // namespace crowdselect::bench

#endif  // CROWDSELECT_BENCH_COMMON_TABLE_RUNNER_H_
