#ifndef PERFBENCH_OFFLINE_H_
#define PERFBENCH_OFFLINE_H_

#include "serving.h"
#include "util.h"

namespace perfbench {

/// offline_paper: the four paper cities solved with the GAP and greedy
/// presets, then a seeded sequence of every atomic op kind per city through
/// IncrementalPlanner::Apply. No service, network or journal takes part in
/// the end-to-end figures.
void RunOffline(const RunOptions& options, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_OFFLINE_H_
