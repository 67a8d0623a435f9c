// The three workloads. Each generates its inputs from `seed`, times its
// set-up several times (setup_s is the median), measures
// for about `seconds`, checks its outputs, and returns raw samples.
// Workloads drive only the layers' public entry points.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "ledger.h"

namespace e2ebench {

struct WorkloadOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  // Directory for the delta log and snapshot files this run writes.
  std::string work_dir = ".";
};

// Cold-start GALE loop: PrepareDataset (set-up) then repeated RunGale.
Outcome RunDetect(const WorkloadOptions& options, Ledger& ledger);
// Store stream: append + apply + publish + probe read per delta batch,
// then log read-back, replay, and publish.
Outcome RunIngest(const WorkloadOptions& options, Ledger& ledger);
// Closed-loop serving through one RequestBatcher.
Outcome RunServe(const WorkloadOptions& options, Ledger& ledger);

// Times 2000 empty util::ParallelFor dispatches over 4096 items into
// samples["dispatch_us"].
void MeasureParallelDispatch(Outcome& out);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
