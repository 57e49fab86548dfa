#include "srepair/opt_srepair.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "engine/block_partitioner.h"
#include "engine/thread_pool.h"
#include "graph/bipartite_matching.h"
#include "srepair/osr_succeeds.h"
#include "srepair/simplification.h"
#include "storage/row_span.h"

namespace fdrepair {
namespace {

/// One block's solution: its kept rows and their weight, or a failure.
struct BlockResult {
  std::vector<int> rows;
  double weight = 0;
  Status status;
};

/// Per-thread scratch arena for the recursion: grouping buffers plus a
/// freelist of BlockResult vectors, so steady-state recursion performs no
/// heap allocation beyond amortized capacity growth. thread_local because
/// pool workers (and the calling thread, which helps via ParallelFor) each
/// need their own; no scratch state is live across nested calls, so a
/// thread helping with an unrelated block while blocked in ParallelFor
/// reuses the same arena safely. Leases always release on the acquiring
/// thread, into the scratch they came from (each Recurse frame runs
/// start-to-finish on one thread); neither scratch nor freelists are
/// thread-safe, so never hand a lease to another thread.
///
/// Deliberate trade-off: arenas retain their peak capacity for the
/// thread's lifetime (that retention IS the allocation win on repeated
/// requests), so a long-lived server that once repaired a huge table keeps
/// O(peak rows) ints per worker thread. The freelists themselves stay
/// short — bounded by the recursion depth ever reached on that thread.
struct RecursionScratch {
  GroupScratch groups;
  std::vector<std::vector<BlockResult>> free_results;

  /// A result vector with at least `num_blocks` reset entries. The vector
  /// is never shrunk, so the row buffers of high-index entries keep their
  /// capacity across rounds; callers must only read the first num_blocks.
  std::vector<BlockResult> AcquireResults(int num_blocks) {
    std::vector<BlockResult> results;
    if (!free_results.empty()) {
      results = std::move(free_results.back());
      free_results.pop_back();
    }
    if (static_cast<int>(results.size()) < num_blocks) {
      results.resize(num_blocks);
    }
    for (int b = 0; b < num_blocks; ++b) {
      results[b].rows.clear();
      results[b].weight = 0;
      results[b].status = Status::OK();
    }
    return results;
  }
  void ReleaseResults(std::vector<BlockResult> results) {
    free_results.push_back(std::move(results));
  }
};

RecursionScratch& LocalScratch() {
  thread_local RecursionScratch scratch;
  return scratch;
}

/// RAII arena lease for a BlockResult vector: it goes back to the freelist
/// on scope exit, so the recursion may return early (including through
/// FDR_RETURN_IF_ERROR) without leaking buffers out of the arena.
/// Destruction happens on the thread that acquired, since Recurse runs each
/// node on one thread.
class ScopedResults {
 public:
  ScopedResults(RecursionScratch* scratch, int num_blocks)
      : scratch_(scratch), results_(scratch->AcquireResults(num_blocks)) {}
  ~ScopedResults() { scratch_->ReleaseResults(std::move(results_)); }
  ScopedResults(const ScopedResults&) = delete;
  ScopedResults& operator=(const ScopedResults&) = delete;

  std::vector<BlockResult>& operator*() { return results_; }
  BlockResult& operator[](int b) { return results_[b]; }

 private:
  RecursionScratch* scratch_;
  std::vector<BlockResult> results_;
};

/// One chain step's partition of a span into its σ-blocks, in
/// first-appearance order: grouped by the removed attribute for common-lhs
/// and consensus steps, by X1X2 for an lhs marriage — which also gives each
/// block its bipartite endpoints, the dense first-appearance ids of its
/// π_X1 (left) and π_X2 (right) values. Permutes the span's window in
/// place. Buffers are leased from `groups` (the calling thread's arena)
/// and returned on scope exit, under the same single-thread rule as
/// ScopedResults; only marriage steps lease the endpoint buffers.
class StepBlocks {
 public:
  StepBlocks(const SimplificationStep& step, RowSpan span,
             GroupScratch* groups)
      : groups_(groups),
        span_(span),
        marriage_(step.kind == SimplificationKind::kLhsMarriage),
        ends_(groups->AcquireIntBuffer()) {
    if (marriage_) {
      left_ = groups->AcquireIntBuffer();
      right_ = groups->AcquireIntBuffer();
      PartitionSpanForMarriage(span, step.marriage_x1, step.marriage_x2,
                               groups, &ends_, &left_, &right_, &num_left_,
                               &num_right_);
    } else {
      PartitionSpanByAttrs(span, step.removed, groups, &ends_);
    }
  }
  ~StepBlocks() {
    if (marriage_) {
      groups_->ReleaseIntBuffer(std::move(right_));
      groups_->ReleaseIntBuffer(std::move(left_));
    }
    groups_->ReleaseIntBuffer(std::move(ends_));
  }
  StepBlocks(const StepBlocks&) = delete;
  StepBlocks& operator=(const StepBlocks&) = delete;

  int size() const { return static_cast<int>(ends_.size()); }
  /// The sub-window of the span holding block b.
  RowSpan Block(int b) const {
    const int begin = b == 0 ? 0 : ends_[b - 1];
    return span_.Subspan(begin, ends_[b] - begin);
  }
  /// Marriage steps only: block b's bipartite endpoints and side sizes.
  int left(int b) const { return left_[b]; }
  int right(int b) const { return right_[b]; }
  int num_left() const { return num_left_; }
  int num_right() const { return num_right_; }

 private:
  GroupScratch* groups_;
  RowSpan span_;
  bool marriage_;
  std::vector<int> ends_;
  std::vector<int> left_;
  std::vector<int> right_;
  int num_left_ = 0;
  int num_right_ = 0;
};

/// Everything constant across one OptSRepairRows recursion.
struct RecursionContext {
  const SimplificationChain* chain;
  const OptSRepairExec* exec;
  /// Non-null on a capturing run: the depth-0 arm records its block
  /// structure here (and skips the all-singleton shortcuts so every block
  /// actually gets an entry — the shortcuts are bit-identical to the
  /// general path, so results never change). Deeper levels ignore it.
  SRepairPlanCache* capture = nullptr;
};

/// Records the top-level membership sequences — called BEFORE SolveBlocks,
/// while each window still holds its rows in partition (original-span)
/// order; child recursions permute their windows in place, and the delta
/// path names blocks by this pre-recursion order. Also fills *pos_of_row
/// (indexed by dense table row) with each row's block-local position, so
/// CaptureBlockResults can translate kept rows to positions without any
/// per-row hashing.
void CaptureBlockIds(SRepairPlanCache* capture, SimplificationKind kind,
                     RowSpan span, const StepBlocks& blocks,
                     std::vector<int>* pos_of_row) {
  capture->spliceable = true;
  capture->top_kind = kind;
  capture->blocks.clear();
  capture->blocks.reserve(blocks.size());
  pos_of_row->resize(span.table().num_tuples());
  for (int b = 0; b < blocks.size(); ++b) {
    const RowSpan block = blocks.Block(b);
    SRepairBlockRecipe& recipe =
        *capture->blocks.emplace_back(std::make_shared<SRepairBlockRecipe>());
    recipe.ids.reserve(block.num_tuples());
    for (int i = 0; i < block.num_tuples(); ++i) {
      recipe.ids.push_back(block.id(i));
      (*pos_of_row)[block.row(i)] = i;
    }
  }
}

/// Records each top-level block's kept positions and weight after
/// SolveBlocks (`pos_of_row` is CaptureBlockIds' row → block-local
/// position translation).
void CaptureBlockResults(SRepairPlanCache* capture,
                         const std::vector<int>& pos_of_row,
                         const std::vector<BlockResult>& results) {
  for (size_t b = 0; b < capture->blocks.size(); ++b) {
    SRepairBlockRecipe& recipe = *capture->blocks[b];
    recipe.kept_pos.reserve(results[b].rows.size());
    for (int row : results[b].rows) recipe.kept_pos.push_back(pos_of_row[row]);
    recipe.weight = results[b].weight;
  }
}

/// Membership test for the delta's updated ids, fused into block
/// extraction. TupleIds are assigned densely from 1 and never recycled, so
/// a flag vector indexed by id answers in one load per block member — the
/// per-member unordered_set probe this replaces was (with id-keyed kept-row
/// resolution) the splice's hottest path. Ids too sparse to flag cheaply
/// fall back to binary search over a sorted copy.
class UpdatedIdSet {
 public:
  UpdatedIdSet(const std::vector<TupleId>& ids, size_t flag_cap) {
    TupleId max_id = 0;
    for (TupleId id : ids) max_id = std::max(max_id, id);
    if (static_cast<size_t>(max_id) < flag_cap) {
      flags_.assign(static_cast<size_t>(max_id) + 1, 0);
      for (TupleId id : ids) flags_[static_cast<size_t>(id)] = 1;
    } else {
      sorted_ = ids;
      std::sort(sorted_.begin(), sorted_.end());
    }
  }

  bool contains(TupleId id) const {
    if (!flags_.empty()) {
      return static_cast<size_t>(id) < flags_.size() &&
             flags_[static_cast<size_t>(id)] != 0;
    }
    return std::binary_search(sorted_.begin(), sorted_.end(), id);
  }

 private:
  std::vector<unsigned char> flags_;
  std::vector<TupleId> sorted_;
};

Status Recurse(const RecursionContext& ctx, int depth, RowSpan span,
               std::vector<int>* kept, double* kept_weight);

// Solves every block sub-span at chain depth `depth` into block-local
// accumulators — sequentially, or on exec.pool when the parent span is
// large enough to amortize the fan-out. Returns the first failing block's
// status in block order; on success `results` holds one entry per block.
// Callers merge in block order, so the reduction (including floating-point
// weight sums) is the same expression tree for every thread count.
//
// The sequential path deliberately buffers per block too (instead of
// appending straight into the caller's accumulators, as the pre-engine
// code did): appending directly would sum weights leaf-by-leaf across
// block boundaries, a *different* floating-point expression tree than the
// partial-sums-then-merge shape of the parallel path, and the
// bit-identical-across-thread-counts guarantee would be lost on weight
// ties. The cost is one extra append of each kept row per recursion level.
//
// Blocks are disjoint sub-windows of one shared row-index buffer: child
// recursions permute only their own window, so concurrent blocks never
// touch the same buffer element.
template <typename BlockSpanFn>
Status SolveBlocks(const RecursionContext& ctx, int depth, int num_blocks,
                   const BlockSpanFn& block_span, int parent_tuples,
                   std::vector<BlockResult>* results) {
  auto solve_one = [&](int b) {
    BlockResult& result = (*results)[b];
    result.status =
        Recurse(ctx, depth, block_span(b), &result.rows, &result.weight);
  };
  const OptSRepairExec& exec = *ctx.exec;
  const bool parallel = exec.pool != nullptr && exec.pool->num_threads() > 1 &&
                        num_blocks > 1 &&
                        parent_tuples >= exec.parallel_cutoff;
  if (parallel) {
    exec.pool->ParallelFor(num_blocks, solve_one);
    for (int b = 0; b < num_blocks; ++b) {
      FDR_RETURN_IF_ERROR((*results)[b].status);
    }
  } else {
    for (int b = 0; b < num_blocks; ++b) {
      solve_one(b);
      FDR_RETURN_IF_ERROR((*results)[b].status);
    }
  }
  return Status::OK();
}

/// Keeps every row of `span` (a consistent span is its own optimal
/// S-repair), adding the weights left to right.
void KeepAll(RowSpan span, std::vector<int>* kept, double* kept_weight) {
  for (int i = 0; i < span.num_tuples(); ++i) {
    kept->push_back(span.row(i));
    *kept_weight += span.weight(i);
  }
}

/// The combine step of Algorithm 1: merges the per-block results of a
/// `kind` step (the first blocks.size() entries of `results`), appending
/// the kept rows to *kept and their weight to *kept_weight. Every merge
/// reads the blocks in first-appearance order, so the reduction — and its
/// floating-point sums — is the same for every thread count, and for cold
/// and spliced block results alike.
void MergeBlocks(SimplificationKind kind, const StepBlocks& blocks,
                 const std::vector<BlockResult>& results,
                 std::vector<int>* kept, double* kept_weight) {
  const int num_blocks = blocks.size();
  switch (kind) {
    case SimplificationKind::kCommonLhs: {
      // Subroutine 1: the union of the groups' repairs. Tuples in
      // different groups disagree on A ∈ lhs of every FD, so the union is
      // consistent.
      for (int b = 0; b < num_blocks; ++b) {
        kept->insert(kept->end(), results[b].rows.begin(),
                     results[b].rows.end());
        *kept_weight += results[b].weight;
      }
      return;
    }
    case SimplificationKind::kConsensus: {
      // Subroutine 2: all surviving tuples must agree on A, so keep only
      // the heaviest group's repair (the first one on ties).
      const BlockResult* best = nullptr;
      for (int b = 0; b < num_blocks; ++b) {
        if (best == nullptr || results[b].weight > best->weight) {
          best = &results[b];
        }
      }
      if (best != nullptr && best->weight > 0) {
        kept->insert(kept->end(), best->rows.begin(), best->rows.end());
        *kept_weight += best->weight;
      }
      return;
    }
    case SimplificationKind::kLhsMarriage: {
      // Subroutine 3: a consistent subset may keep, for any X1 value,
      // tuples of at most one X2 value and vice versa (cl(X1) = cl(X2) ⊇
      // X1X2), so block selection is a bipartite matching between π_X1 T
      // and π_X2 T, maximizing kept weight.
      std::vector<BipartiteEdge> edges;
      edges.reserve(num_blocks);
      for (int b = 0; b < num_blocks; ++b) {
        edges.push_back(
            BipartiteEdge{blocks.left(b), blocks.right(b), results[b].weight});
      }
      MatchingResult matching = MaxWeightBipartiteMatching(
          blocks.num_left(), blocks.num_right(), edges);
      // Blocks are keyed by their unique (left, right) pair.
      auto pair_key = [](int l, int r) {
        return (static_cast<uint64_t>(static_cast<uint32_t>(l)) << 32) |
               static_cast<uint32_t>(r);
      };
      std::unordered_map<uint64_t, int> block_of;
      block_of.reserve(num_blocks);
      for (int b = 0; b < num_blocks; ++b) {
        block_of[pair_key(blocks.left(b), blocks.right(b))] = b;
      }
      for (const auto& [l, r] : matching.pairs) {
        const BlockResult& result = results[block_of.at(pair_key(l, r))];
        kept->insert(kept->end(), result.rows.begin(), result.rows.end());
        *kept_weight += result.weight;
      }
      return;
    }
    default:
      FDR_CHECK_MSG(false, "MergeBlocks: step kind has no blocks");
  }
}

// Recursive body of Algorithm 1 over the chain step at `depth`. Appends the
// kept dense row positions to `kept` and adds their total weight to
// `kept_weight`. May permute `span`'s window (block formation), but blocks
// and their recursive repairs are independent of row order within a window.
Status Recurse(const RecursionContext& ctx, int depth, RowSpan span,
               std::vector<int>* kept, double* kept_weight) {
  if (span.empty()) return Status::OK();
  const OptSRepairExec& exec = *ctx.exec;
  if (exec.has_deadline() &&
      std::chrono::steady_clock::now() >= exec.deadline) {
    return Status::DeadlineExceeded(
        "OptSRepair deadline expired mid-recursion");
  }

  const SimplificationStep& step = ctx.chain->at(depth);
  if (span.num_tuples() == 1 && step.kind != SimplificationKind::kStuck) {
    // A single tuple cannot violate any FD, so it is its own optimal
    // S-repair under every simplifiable ∆ — no need to walk the rest of
    // the chain one singleton block per level. This keeps the recursion's
    // call count proportional to the number of non-trivial blocks (the
    // deep-chain profile was dominated by singleton-span bookkeeping).
    // Bit-identical to the full walk: the same row is kept, and its weight
    // reaches the accumulator as the same single term.
    kept->push_back(span.row(0));
    *kept_weight += span.weight(0);
    return Status::OK();
  }
  switch (step.kind) {
    case SimplificationKind::kTrivialTermination:
      // Line 2: ∆ trivial — T is its own optimal S-repair.
      KeepAll(span, kept, kept_weight);
      return Status::OK();
    case SimplificationKind::kCommonLhs:
    case SimplificationKind::kConsensus:
    case SimplificationKind::kLhsMarriage: {
      // Subroutines 1–3: partition into σ-blocks, solve each under the
      // next chain step (∆ − A, resp. ∆ − X1X2), then merge.
      RecursionScratch& scratch = LocalScratch();
      const StepBlocks blocks(step, span, &scratch.groups);
      const int num_blocks = blocks.size();
      const bool capturing = depth == 0 && ctx.capture != nullptr;
      if (num_blocks == span.num_tuples() && !capturing) {
        // Every block is a single tuple, and a single tuple is always its
        // own optimal S-repair. Both shortcuts compute exactly what the
        // block merge would: the union keeps everything with the same
        // left-to-right weight sum, and the consensus repair is the
        // heaviest tuple, first in span order on ties (`>` against the
        // running best).
        if (step.kind == SimplificationKind::kCommonLhs) {
          KeepAll(span, kept, kept_weight);
          return Status::OK();
        }
        if (step.kind == SimplificationKind::kConsensus) {
          int best = 0;
          for (int i = 1; i < span.num_tuples(); ++i) {
            if (span.weight(i) > span.weight(best)) best = i;
          }
          kept->push_back(span.row(best));
          *kept_weight += span.weight(best);
          return Status::OK();
        }
      }
      std::vector<int> capture_pos;
      if (capturing) {
        CaptureBlockIds(ctx.capture, step.kind, span, blocks, &capture_pos);
      }
      ScopedResults results(&scratch, num_blocks);
      FDR_RETURN_IF_ERROR(SolveBlocks(
          ctx, depth + 1, num_blocks, [&](int b) { return blocks.Block(b); },
          span.num_tuples(), &*results));
      if (capturing) {
        CaptureBlockResults(ctx.capture, capture_pos, *results);
      }
      MergeBlocks(step.kind, blocks, *results, kept, kept_weight);
      return Status::OK();
    }
    case SimplificationKind::kStuck: {
      return Status::FailedPrecondition(
          "OptSRepair fails: FD set is not simplifiable (computing an "
          "optimal S-repair is APX-complete for it): " +
          step.before.ToString());
    }
  }
  return Status::Internal("unreachable simplification kind");
}

StatusOr<std::vector<int>> RunRows(const FdSet& fds, const TableView& view,
                                   const OptSRepairExec& exec,
                                   SRepairPlanCache* capture) {
  // §3.2: "the success or failure of OptSRepair(∆, T) depends only on ∆,
  // and not on T" — enforce that by running Algorithm 2 up front, so small
  // or empty tables cannot mask a non-simplifiable ∆.
  if (!OsrSucceeds(fds)) {
    return Status::FailedPrecondition(
        "OptSRepair fails: OSRSucceeds is false for ∆ = " + fds.ToString() +
        " (computing an optimal S-repair is APX-complete; Theorem 3.4)");
  }
  // The chain depends only on ∆ (§3.2): compute it once and let every
  // block at depth d share the step, instead of re-simplifying per block.
  SimplificationChain chain = SimplificationChain::Compute(fds);
  // The single shared row-index buffer: the recursion permutes it in place
  // and hands disjoint sub-windows to child blocks (concurrent blocks touch
  // disjoint ranges), so no level materializes per-block index vectors.
  std::vector<int> buffer = view.rows();
  std::vector<int> kept;
  double kept_weight = 0;
  RecursionContext ctx{&chain, &exec, capture};
  FDR_RETURN_IF_ERROR(
      Recurse(ctx, 0,
              RowSpan(view.table(), buffer.data(),
                      static_cast<int>(buffer.size())),
              &kept, &kept_weight));
  std::sort(kept.begin(), kept.end());
  return kept;
}

/// The delta-splice path of the canonical OptSRepairRows (see the header
/// comment there for the contract).
StatusOr<std::vector<int>> DeltaRows(
    const FdSet& fds, const TableView& view, const OptSRepairExec& exec,
    const SRepairPlanCache& base, const std::vector<TupleId>& updated_ids,
    SRepairPlanCache* capture, SRepairSpliceStats* stats) {
  if (!base.spliceable) {
    return Status::FailedPrecondition(
        "delta splice: base plan is not spliceable (the base run never "
        "decomposed into blocks) — fall back to a full re-plan");
  }
  if (!OsrSucceeds(fds)) {
    return Status::FailedPrecondition(
        "OptSRepair fails: OSRSucceeds is false for ∆ = " + fds.ToString() +
        " (computing an optimal S-repair is APX-complete; Theorem 3.4)");
  }
  SimplificationChain chain = SimplificationChain::Compute(fds);
  const SimplificationStep& step = chain.at(0);
  if (step.kind != base.top_kind) {
    return Status::Internal(
        "delta splice: base plan's top step does not match ∆'s first "
        "simplification — the plan was captured under a different FD set");
  }
  if (view.num_tuples() <= 1) {
    // The cold run would take the singleton/empty shortcut and never form
    // blocks; a full re-plan is cheaper than any splice bookkeeping.
    return Status::FailedPrecondition(
        "delta splice: mutated table too small to splice");
  }

  const Table& table = view.table();
  std::vector<int> buffer = view.rows();
  RowSpan span(table, buffer.data(), static_cast<int>(buffer.size()));
  RecursionContext ctx{&chain, &exec, nullptr};
  RecursionScratch& scratch = LocalScratch();

  // Partition the mutated table exactly as a cold run's depth-0 arm would.
  const StepBlocks blocks(step, span, &scratch.groups);
  const int num_blocks = blocks.size();

  BaseBlockIndex index;
  for (const auto& recipe : base.blocks) index.Add(recipe->ids);
  // Flaggable up to a generous multiple of the table size: ids grow by one
  // per insert ever made, so only a table that shrank by orders of
  // magnitude since its ids were minted falls back to binary search.
  const UpdatedIdSet updated(
      updated_ids, static_cast<size_t>(view.num_tuples()) * 16 + 65536);

  // One pass per block, while its window still holds partition order
  // (dirty blocks' child recursions permute their windows in place, but
  // windows are disjoint — later blocks are unaffected):
  //   1. extract the membership sequence into a reused scratch buffer and
  //      test each member against the updated-id set as it streams by;
  //   2. clean (undirtied + structurally matched) blocks replay their
  //      captured kept positions straight off the window — the values a
  //      cold recursion on the identical block would recompute;
  //   3. dirty blocks re-run the span recursion at depth 1, exactly as
  //      SolveBlocks would have from a cold depth-0 arm (keeping their id
  //      sequence only when a refreshed capture needs it).
  ScopedResults results(&scratch, num_blocks);
  std::vector<std::vector<TupleId>> ids_of_block(
      capture != nullptr ? num_blocks : 0);
  // Refresh-only row → block-local position translation (a dirty block's
  // window is permuted by its recursion, so positions must be recorded
  // here, pre-recursion). A flat array over table rows, shared by every
  // block — no per-block hashing.
  std::vector<int> pos_of_row(capture != nullptr ? table.num_tuples() : 0);
  std::vector<int> base_of_block(num_blocks, -1);
  std::vector<TupleId> ids_scratch;
  int blocks_clean = 0;
  for (int b = 0; b < num_blocks; ++b) {
    RowSpan block = blocks.Block(b);
    ids_scratch.clear();
    bool dirtied = false;
    for (int i = 0; i < block.num_tuples(); ++i) {
      const TupleId id = block.id(i);
      ids_scratch.push_back(id);
      if (updated.contains(id)) dirtied = true;
      if (capture != nullptr) pos_of_row[block.row(i)] = i;
    }
    const int m =
        dirtied ? -1
                : index.Match(ids_scratch.data(),
                              static_cast<int>(ids_scratch.size()));
    base_of_block[b] = m;
    BlockResult& result = results[b];
    if (m >= 0) {
      ++blocks_clean;
      const SRepairBlockRecipe& recipe = *base.blocks[m];
      result.rows.reserve(recipe.kept_pos.size());
      for (int p : recipe.kept_pos) result.rows.push_back(block.row(p));
      result.weight = recipe.weight;
    } else {
      if (capture != nullptr) ids_of_block[b] = ids_scratch;
      FDR_RETURN_IF_ERROR(
          Recurse(ctx, 1, block, &result.rows, &result.weight));
    }
  }

  // Re-run the top-level merge over the mixed per-block results — the same
  // reduction, in the same first-appearance block order, as the cold arms.
  std::vector<int> kept;
  double kept_weight = 0;
  MergeBlocks(step.kind, blocks, *results, &kept, &kept_weight);

  if (capture != nullptr) {
    // Build the refreshed plan before touching *capture — callers may pass
    // capture == &base to refresh a plan in place. Clean blocks alias the
    // base plan's (immutable) recipes, so the refresh allocates only for
    // the dirty set.
    std::vector<std::shared_ptr<SRepairBlockRecipe>> refreshed(num_blocks);
    for (int b = 0; b < num_blocks; ++b) {
      const int m = base_of_block[b];
      if (m >= 0) {
        refreshed[b] = base.blocks[m];
        continue;
      }
      auto fresh = std::make_shared<SRepairBlockRecipe>();
      SRepairBlockRecipe& recipe = *fresh;
      recipe.ids = std::move(ids_of_block[b]);
      recipe.kept_pos.reserve(results[b].rows.size());
      for (int row : results[b].rows) {
        recipe.kept_pos.push_back(pos_of_row[row]);
      }
      recipe.weight = results[b].weight;
      refreshed[b] = std::move(fresh);
    }
    capture->spliceable = true;
    capture->top_kind = step.kind;
    capture->blocks = std::move(refreshed);
  }
  if (stats != nullptr) {
    stats->blocks_total = num_blocks;
    stats->blocks_clean = blocks_clean;
    stats->blocks_dirty = num_blocks - blocks_clean;
  }

  std::sort(kept.begin(), kept.end());
  return kept;
}

}  // namespace

StatusOr<std::vector<int>> OptSRepairRows(const FdSet& fds,
                                          const TableView& view,
                                          const OptSRepairRowsOptions& options,
                                          SRepairPlanCache* capture) {
  if (options.delta_base != nullptr) {
    static const std::vector<TupleId> kNoUpdatedIds;
    const std::vector<TupleId>& updated = options.delta_updated_ids != nullptr
                                              ? *options.delta_updated_ids
                                              : kNoUpdatedIds;
    return DeltaRows(fds, view, options.exec, *options.delta_base, updated,
                     capture, options.splice_stats);
  }
  if (capture == nullptr) return RunRows(fds, view, options.exec, nullptr);
  // A fresh capture every run: on success the depth-0 arm filled it in; on
  // the paths that never decompose (trivial ∆, single-row or empty table,
  // errors) it stays non-spliceable and delta callers fall back.
  capture->spliceable = false;
  capture->top_kind = SimplificationKind::kStuck;
  capture->blocks.clear();
  return RunRows(fds, view, options.exec, capture);
}

StatusOr<Table> OptSRepair(const FdSet& fds, const Table& table) {
  FDR_ASSIGN_OR_RETURN(std::vector<int> rows,
                       OptSRepairRows(fds, TableView(table)));
  return table.SubsetByRows(rows);
}

}  // namespace fdrepair
