// The benchmark's correctness gate. Every response the closed loop receives
// is checked here, outside the timed region; a failed check is a wrong
// answer, which counts as failed and makes the run exit non-zero.
//
// Three checks, from cheap to expensive:
//   CheckConsistent — the repair is a consistent subset/update of the
//     request's table and its reported distance matches a recomputed one
//     (soft mode: deleted weight plus weighted violations); the solver
//     certificate is sane (lower bound <= distance, optimal => tight).
//   CheckWithVerifier — the verify layer (CheckSubsetRepair /
//     CheckUpdateRepair) classifies the repair; where the dichotomy says the
//     route is exact (OsrSucceeds on the cover) it must be optimal and say
//     so.
//   CheckReplan — the response is bit-identical (ids, weights, cell texts,
//     distance, optimal flag) to a cold re-plan of the same table state by
//     the planner itself (OptSRepairRows / OptURepairCells, no service).
// Each returns an empty string on success and the reason otherwise.
#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include <cstdint>
#include <string>

#include "catalog/fdset.h"
#include "service/repair_service.h"
#include "storage/table.h"

namespace perfbench {

std::string CheckConsistent(fdrepair::RepairMode mode,
                            const fdrepair::FdSet& cover,
                            const fdrepair::Table& table,
                            const fdrepair::RepairResponse& response);

/// Subset and update repairs (soft requests whose cover kept a finite weight
/// have no verify-layer classifier; CheckConsistent's recomputed cost is
/// their check). `check_ms` receives the verify-layer call's duration.
std::string CheckWithVerifier(fdrepair::RepairMode mode,
                              const fdrepair::FdSet& cover,
                              const fdrepair::Table& table,
                              const fdrepair::RepairResponse& response,
                              double* check_ms);

/// Tractable covers only (subset: OsrSucceeds; update: any U-plan). The
/// re-plan is sequential: the planners' output is the same at every thread
/// count.
std::string CheckReplan(fdrepair::RepairMode mode, const fdrepair::FdSet& cover,
                        const fdrepair::Table& table,
                        const fdrepair::RepairResponse& response);

/// A digest of everything a response returns (repaired rows' ids, weight
/// bits and interned cells, plus distance and optimality). Responses for
/// the same table object compare bit-for-bit through it.
uint64_t Fingerprint(const fdrepair::RepairResponse& response);

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H_
