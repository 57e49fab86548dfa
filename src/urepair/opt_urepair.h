// OptURepairCells: the §4 U-repair planner as a *cell-edit* producer, plus
// plan capture and delta splicing — the update-mode counterpart of
// srepair/opt_srepair.h's row-level plan cache.
//
// Where an S-repair is a kept-id set, a U-repair is a set of cell
// rewrites; the natural recipe unit is therefore a (position, attribute,
// replacement text) triple, not a row list. OptURepairCells runs exactly
// the ComputeURepair pipeline (consensus peeling, attribute-disjoint
// components, the per-component route table) and returns the update as a
// canonical edit list — sorted by (dense row position, attribute), one
// entry per cell that actually changed — together with the DistUpd
// distance, computed over the materialized update before it is discarded.
// ComputeURepair itself is a thin wrapper: clone + apply edits.
//
// Plan capture records, per component, the inner S-repair's
// SRepairPlanCache (common-lhs and key-cycle routes both reduce to
// Algorithm 1) and — for common-lhs components — one URepairBlockRecipe
// per top-level S-repair block: the freshening edits of that block's
// deleted rows. A later delta run splices each component:
//
//   - consensus attributes: recomputed outright (one contiguous column
//     sweep per attribute — already O(n), nothing worth caching);
//   - common-lhs: the inner OptSRepairRows splice re-runs dirty blocks
//     only; a clean block's *edit recipe* is reused by shared_ptr identity
//     with the refreshed S-plan's recipe (recipes are immutable once
//     published, so pointer equality proves the block — ids, kept set and
//     hence its freshening — is unchanged), skipping the per-cell name
//     construction and pool interning entirely;
//   - key-cycle: the inner S-repair splices; the Proposition 4.9
//     alignment pass is recomputed over the spliced kept set (it is a
//     single O(n) column sweep and its bijection depends on the *global*
//     kept order, so it cannot be cached per block);
//   - exact-search / combined-approx components make the whole plan
//     non-spliceable (kFailedPrecondition → callers fall back to a full
//     re-plan, exactly as the service does for non-spliceable S-plans).
//
// Bit-identity of the splice with a cold OptURepairCells run follows from
// the S-repair splice guarantee (opt_srepair.h) plus determinism of the
// freshening: fresh-constant names derive from (TupleId, attribute) — see
// urepair/fresh.h — so a clean block's cached edit texts are literally
// what a cold run would re-derive, and the sequential merge/diff order is
// unchanged. tests/delta_test.cc property-tests this across random
// mutation sequences and thread counts.

#ifndef FDREPAIR_UREPAIR_OPT_UREPAIR_H_
#define FDREPAIR_UREPAIR_OPT_UREPAIR_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/fdset.h"
#include "common/status.h"
#include "srepair/opt_srepair.h"
#include "storage/table.h"
#include "urepair/planner.h"

namespace fdrepair {

/// One cell rewrite, addressed by stable TupleId (pool- and
/// position-independent, like SRepairBlockRecipe's id sequences) with the
/// replacement as text (ValueIds are pool-dependent).
struct URepairCellEdit {
  TupleId id = 0;
  AttrId attr = 0;
  std::string text;
};

struct URepairPlanCache;

/// Everything one OptURepairCells run needs beyond (∆, T): planner knobs,
/// execution limits, and the optional delta-splice inputs — the
/// update-mode mirror of OptSRepairRowsOptions.
struct OptURepairOptions {
  URepairOptions planner;
  /// Inner S-repairs (common-lhs, key-cycle) fan their blocks out under
  /// this exec; every freshening/alignment/diff pass is sequential, so
  /// results are bit-identical for every thread count.
  OptSRepairExec exec;
  /// Non-null: splice this plan — captured on the PRE-mutation table —
  /// instead of a cold run (see the file comment for what each component
  /// route reuses).
  const URepairPlanCache* delta_base = nullptr;
  /// Delta runs only: tuple ids whose content changed in place. Null means
  /// "no in-place edits".
  const std::vector<TupleId>* delta_updated_ids = nullptr;
  /// Delta runs only (optional): accumulates the inner splices'
  /// clean/dirty block counts.
  SRepairSpliceStats* splice_stats = nullptr;
};

/// The edit-list form of a U-repair.
struct OptURepairResult {
  /// Canonical order: ascending (dense row position, attribute); each
  /// edited cell appears exactly once, and every entry really differs
  /// from the input cell.
  std::vector<URepairCellEdit> edits;
  /// dist_upd(update, T), bit-exact with DistUpd on the materialized
  /// update.
  double distance = 0;
  bool optimal = false;
  double ratio_bound = 1;
  URepairPlan plan;
};

/// The freshening edits of one top-level S-repair block of a common-lhs
/// component: positions index into the paired SRepairBlockRecipe's `ids`.
/// Immutable once published and SHARED between chained plans, exactly like
/// SRepairBlockRecipe.
struct URepairBlockRecipe {
  struct Edit {
    int pos = 0;
    AttrId attr = 0;
    std::string text;
  };
  std::vector<Edit> edits;
};

/// Captured execution state of one component.
struct URepairComponentCache {
  URepairRoute route = URepairRoute::kNoop;
  FdSet fds;
  AttrSet attrs;
  /// Common-lhs only: the minimum lhs cover whose cells get freshened.
  AttrSet cover;
  /// Key-cycle only: the (A, B) pair.
  std::optional<std::pair<AttrId, AttrId>> cycle;
  /// The inner S-repair's captured plan (common-lhs and key-cycle).
  std::shared_ptr<SRepairPlanCache> splan;
  /// Common-lhs only: aligned 1:1 with splan->blocks.
  std::vector<std::shared_ptr<URepairBlockRecipe>> block_edits;
};

/// The captured top-level structure of one OptURepairCells run.
struct URepairPlanCache {
  /// Spliceable iff every component routes to kNoop / kCommonLhsExact /
  /// kKeyCycleExact and every inner S-plan is itself spliceable.
  bool spliceable = false;
  AttrSet consensus_attrs;
  std::vector<URepairComponentCache> components;
};

/// Plans and executes an update repair, returning the canonical edit
/// list. With `capture` non-null additionally records the run's plan
/// (capture->spliceable tells whether it can seed a delta run).
///
/// With options.delta_base non-null, repairs `table` (the MUTATED table)
/// by splicing the captured plan; bit-identical to a cold run on `table`
/// for every thread count, and `capture` then receives the refreshed plan
/// (so delta runs chain). Fails with kFailedPrecondition when the base
/// plan is not spliceable (or an inner S-plan refuses to splice) —
/// callers fall back to a full re-plan.
StatusOr<OptURepairResult> OptURepairCells(const FdSet& fds,
                                           const Table& table,
                                           const OptURepairOptions& options = {},
                                           URepairPlanCache* capture = nullptr);

}  // namespace fdrepair

#endif  // FDREPAIR_UREPAIR_OPT_UREPAIR_H_
