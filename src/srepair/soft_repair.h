// ComputeSoftRepair: optimal subset repairs under soft (weighted) FDs.
//
// With per-FD weights ω ∈ (0, ∞] (catalog/fd.h), a repair keeps a subset
// J of the tuples and pays
//
//   cost(J) = Σ_{t ∉ J} w(t)  +  Σ_{soft φ} ω(φ) · #violating pairs of φ in J
//
// subject to J satisfying every *hard* (ω = ∞) FD. Hard repairs are the
// ω ≡ ∞ special case (violations priced out entirely), which is why
// ComputeSoftRepair with an all-hard set delegates to ComputeSRepair
// outright and is bit-identical to it — property-tested across FD sets,
// thread counts and solver backends.
//
// Planner structure:
//   - all-hard ∆: delegate to the subset planner (span recursion,
//     dichotomy routing, solver backends — everything);
//   - an attribute A contained in the lhs of EVERY FD (hard and soft):
//     the weighted common-lhs simplification. Two tuples violating any FD
//     agree on its lhs ⊇ {A}, so σ_{A=a} blocks are fully independent for
//     the soft objective too; recurse per block under ∆ − A (weights
//     preserved by MinusAttrs). The other Algorithm-1 simplifications
//     (consensus, lhs marriage) do NOT survive finite weights — their
//     block merges assume cross-block pairs can never cost anything,
//     which soft penalties break;
//   - otherwise: the soft conflicted core. Enumerate violating pairs per
//     FD, accumulate per-pair penalties (a pair violating a hard FD is a
//     hard edge; penalties of multiple soft FDs add), and hand the
//     resulting soft-cover instance (srepair/soft_cover.h) to a
//     SolverBackend::SolveSoftCover — "bnb" under `exact_guard`
//     conflicted tuples, the LP-bounded "ilp" beyond, or the explicitly
//     requested backend.
//
// The recursion is sequential (options.exec's pool only reaches the
// all-hard delegation path), so results are identical for every thread
// count by construction; the deadline is honored cooperatively at every
// recursion node and inside the solvers.

#ifndef FDREPAIR_SREPAIR_SOFT_REPAIR_H_
#define FDREPAIR_SREPAIR_SOFT_REPAIR_H_

#include <string>
#include <utility>

#include "catalog/fdset.h"
#include "common/status.h"
#include "srepair/planner.h"
#include "storage/table.h"
#include "storage/table_view.h"

namespace fdrepair {

struct SoftRepairOptions {
  /// Solver backend by registry name; must be soft-capable when the
  /// instance has finite-weight violations ("local-ratio", "bnb", "ilp",
  /// or a soft-capable external registration). Empty: auto-route.
  std::string backend;
  /// Auto-routing upgrades from "bnb" to the LP-bounded "ilp" above this
  /// many conflicted tuples per core (mirrors SRepairOptions).
  int exact_guard = 40;
  /// Branch-node budget per core; < 0 lets the planner choose (unlimited
  /// for "bnb" cores, self-limited for auto-routed "ilp" cores exactly as
  /// the hard planner's kAuto).
  long node_budget = -1;
  /// When > 0: fail with kResourceExhausted unless the certified ratio
  /// (min of the a-priori bound and distance / proved lower bound) is at
  /// most this. 0 disables the gate.
  double max_ratio = 0;
  /// Deadline (cooperative, all routes) and — on the all-hard delegation
  /// path only — the thread pool for the span recursion's block fan-out.
  OptSRepairExec exec;
};

/// A soft repair with its provenance: distance = deleted_weight +
/// violation_cost, the soft objective; ratio_bound is 3 from the soft
/// local-ratio template when not optimal, 2 on the all-hard delegation
/// path's approximate routes; route is "soft[<subset route>]" on the
/// all-hard delegation path, "soft[peels=<p>,cores=<c>]" otherwise.
struct SoftRepairResult : RepairProvenance {
  explicit SoftRepairResult(Table repair_in) : repair(std::move(repair_in)) {}

  /// The kept subset, over the input table's schema and pool.
  Table repair;
  /// Σ weights of the deleted tuples (= dist_sub(repair, table)).
  double deleted_weight = 0;
  /// Σ ω(φ) · #violating pairs of φ inside the repair, over soft FDs.
  double violation_cost = 0;
};

/// Plans and executes a soft repair of `table` under ∆. All-hard ∆
/// delegates to ComputeSRepair (bit-identical results). Fails with
/// kInvalidArgument for unknown or non-soft-capable backends (when finite
/// violations exist), kDeadlineExceeded on expiry before a result, and
/// kResourceExhausted when max_ratio rejects the certificate.
StatusOr<SoftRepairResult> ComputeSoftRepair(
    const FdSet& fds, const Table& table,
    const SoftRepairOptions& options = {});

/// Σ ω(φ) · #violating pairs of φ within `view`, over the finite-weight
/// FDs of ∆ (hard FDs contribute nothing — callers wanting hard
/// satisfaction use Satisfies). O(#FDs · n) via per-lhs grouping.
double SoftViolationCost(const FdSet& fds, const TableView& view);

}  // namespace fdrepair

#endif  // FDREPAIR_SREPAIR_SOFT_REPAIR_H_
