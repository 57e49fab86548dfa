// OptSRepair (Algorithm 1): the polynomial-time optimal subset repair for
// every FD set on the tractable side of the Theorem 3.4 dichotomy.
//
// The algorithm repeatedly simplifies (∆, T):
//   - trivial ∆: T itself is the optimal S-repair;
//   - common lhs A: solve each σ_{A=a}T under ∆ − A and union
//     (Subroutine 1, CommonLHSRep);
//   - consensus FD ∅ → A: solve each σ_{A=a}T under ∆ − A and keep the
//     heaviest (Subroutine 2, ConsensusRep);
//   - lhs marriage (X1, X2): solve every block σ_{X1=a1,X2=a2}T under
//     ∆ − X1X2, then pick blocks by a maximum-weight bipartite matching
//     between π_X1 T and π_X2 T (Subroutine 3, MarriageRep);
//   - otherwise fail (the problem is APX-complete; Theorem 3.4).
//
// Weighted tuples and duplicates are fully supported (Theorem 3.2).
//
// Every simplification step decomposes the instance into independent
// blocks; OptSRepairExec lets callers run those blocks on a ThreadPool.
// Results are bit-identical for every thread count: blocks are solved into
// block-local accumulators and merged in first-appearance block order, so
// the reduction — including floating-point weight summation — follows the
// same expression tree whether blocks run sequentially or concurrently.
//
// The recursion runs on the zero-allocation span core (storage/row_span.h):
// one shared row-index buffer is permuted in place per level, blocks are
// (begin, end) windows of it (disjoint, so concurrent blocks never touch
// the same element), grouping is a stable counting scatter over interned
// ValueIds, the simplification chain is computed once per top-level ∆
// (§3.2: it depends only on ∆, not on T) and indexed by depth, and
// per-thread scratch arenas recycle every block-local buffer. See
// bench/bench_hotpath.cc for the measured win over the materializing
// recursion it replaced.

#ifndef FDREPAIR_SREPAIR_OPT_SREPAIR_H_
#define FDREPAIR_SREPAIR_OPT_SREPAIR_H_

#include <chrono>
#include <memory>
#include <vector>

#include "catalog/fdset.h"
#include "common/status.h"
#include "srepair/simplification.h"
#include "storage/table.h"
#include "storage/table_view.h"

namespace fdrepair {

class ThreadPool;

/// How (and how long) the Algorithm-1 recursion may execute.
struct OptSRepairExec {
  /// Blocks of a simplification step run on this pool when set (and the
  /// pool has more than one thread). Null: the classic sequential path.
  ThreadPool* pool = nullptr;
  /// A step only fans its blocks out to the pool when its view still holds
  /// at least this many tuples; smaller sub-instances stay on the calling
  /// thread. Purely a performance knob — results never depend on it.
  int parallel_cutoff = 2048;
  /// Cooperative deadline, checked at every recursion node. Once passed,
  /// the recursion unwinds with kDeadlineExceeded (all in-flight blocks
  /// still run to their own deadline check; nothing is leaked).
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
};

// Plan capture & delta splicing — incremental re-repair under mutation.
//
// The recursion's first simplification step decomposes the table into
// independent top-level σ-blocks; an edited tuple only touches the blocks
// sharing its partition-attribute values (§3.2 locality). A capturing run
// records, per top-level block, its TupleId membership sequence, the
// TupleIds it kept, and its repair weight. A later delta run re-partitions
// the *mutated* table, classifies each block clean/dirty against the
// captured plan (engine/BaseBlockIndex), re-runs the span recursion on
// dirty blocks only, and replays clean blocks' kept ids verbatim — then
// redoes the top-level merge (union / consensus argmax / marriage
// matching) over the mixed per-block results.
//
// Bit-identity of the splice with a cold full run rests on two facts:
//   1. a clean block holds the same rows, with the same content, in the
//      same relative order as its base-run counterpart (mutators preserve
//      survivor order; see storage/table.h EraseRow), so the cold
//      recursion on it would retrace the identical expression tree — the
//      captured kept set and weight double ARE the cold run's values;
//   2. the top-level merge consumes only per-block (rows, weight) results
//      in first-appearance block order, so feeding it captured values for
//      clean blocks and freshly recursed values for dirty blocks follows
//      the same reduction a cold run performs.
// Blocks are named by TupleId sequences (never ProjectionKeys or ValueIds,
// which are pool-dependent), so plans survive re-interning and compose
// across chained deltas.

/// One top-level block of a captured plan.
struct SRepairBlockRecipe {
  /// The block's membership, in block row order (the clean/dirty name).
  std::vector<TupleId> ids;
  /// The block's optimal S-repair as *positions into `ids`* rather than
  /// TupleIds: a clean block's window holds the same id sequence in the
  /// same order, so replay is a direct window lookup per position — no
  /// per-id hash resolution against the mutated table (the id form made
  /// RowOf the splice's hottest instruction).
  std::vector<int> kept_pos;
  /// The block's repair weight exactly as the recursion accumulated it;
  /// bit-exact replay of this double is what keeps consensus argmax and
  /// marriage matching identical across splices.
  double weight = 0;
};

/// The captured top-level structure of one OptSRepairRows run. Spliceable
/// only when the first chain step actually decomposed into blocks —
/// trivial ∆, single-row tables and stuck chains are not (callers fall
/// back to a full re-plan, which is cheap in exactly those cases).
struct SRepairPlanCache {
  bool spliceable = false;
  /// First chain step's kind when spliceable: kCommonLhs, kConsensus or
  /// kLhsMarriage (determines the merge the splice re-runs).
  SimplificationKind top_kind = SimplificationKind::kStuck;
  /// Top-level blocks in first-appearance partition order. Recipes are
  /// treated as immutable once a run completes and are SHARED between
  /// chained plans: a splice's refreshed plan aliases every clean block's
  /// recipe, so refresh cost scales with the dirty set rather than the
  /// table (plans live in a concurrently-read cache — never mutate a
  /// published recipe).
  std::vector<std::shared_ptr<SRepairBlockRecipe>> blocks;
};

/// Observability of one splice: how much cached work survived.
struct SRepairSpliceStats {
  int blocks_total = 0;
  int blocks_clean = 0;
  int blocks_dirty = 0;
};

/// Everything one OptSRepairRows run needs beyond (∆, view): execution
/// limits plus the optional delta-splice inputs. One struct, one entry
/// point — cold runs leave the delta fields null, delta runs point them at
/// the captured plan. (The capture *sink* stays a separate parameter: it is
/// an output, and keeping it out of the options keeps `options` const.)
struct OptSRepairRowsOptions {
  OptSRepairExec exec;
  /// Non-null: splice this plan — captured on the PRE-mutation table —
  /// instead of a cold run, re-running the recursion only on blocks
  /// dirtied by the mutation.
  const SRepairPlanCache* delta_base = nullptr;
  /// Delta runs only: tuple ids whose content changed in place
  /// (inserted/deleted rows are detected from the membership sequences
  /// themselves). Null means "no in-place edits".
  const std::vector<TupleId>* delta_updated_ids = nullptr;
  /// Delta runs only (optional): receives clean/dirty block counts.
  SRepairSpliceStats* splice_stats = nullptr;
};

/// Runs Algorithm 1 on a view; returns the dense row positions (into the
/// underlying table) of an optimal S-repair, in increasing order.
///
/// With `capture` non-null, additionally fills it with the run's top-level
/// plan (capture->spliceable tells whether it can seed a delta run). The
/// returned rows are bit-identical to a non-capturing run's — the only
/// behavioral difference is that capture runs take the general block path
/// at depth 0 where the plain run may take an all-singleton shortcut (the
/// shortcuts are themselves bit-identical to that path by design).
///
/// With options.delta_base non-null, repairs `view` (the MUTATED table) by
/// splicing the captured plan; bit-identical to a cold run on `view` for
/// every thread count, and `capture` then receives the mutated table's
/// refreshed plan (so delta runs chain).
///
/// Fails with kFailedPrecondition iff OSRSucceeds(∆) is false, or — delta
/// runs only — when the base plan is not spliceable or the table is too
/// small to splice (callers fall back to a full re-plan); fails with
/// kDeadlineExceeded when exec.deadline expires mid-run.
StatusOr<std::vector<int>> OptSRepairRows(
    const FdSet& fds, const TableView& view,
    const OptSRepairRowsOptions& options = {},
    SRepairPlanCache* capture = nullptr);

/// Convenience: materializes the optimal S-repair of `table` as a Table
/// (identifiers and weights preserved).
StatusOr<Table> OptSRepair(const FdSet& fds, const Table& table);

}  // namespace fdrepair

#endif  // FDREPAIR_SREPAIR_OPT_SREPAIR_H_
