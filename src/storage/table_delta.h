// TableDelta: the mutation description behind incremental repair serving.
//
// Production repair traffic is not one-shot — a table takes row inserts,
// cell updates and row deletions between requests. Re-hashing the whole
// table after every edit would change the serving cache key and throw away
// the cached repair recipe; a TableDelta instead names exactly which tuple
// identifiers changed and carries a *chain hash*:
//
//   result_hash = H(base_hash, canonicalized delta, new content of the
//                   inserted/updated rows)
//
// so the mutated state has a stable 64-bit identity computed in O(|delta|),
// deltas compose (delta2.base_hash == delta1.result_hash), and cache keys
// stay sound: two different mutations of the same base can never alias,
// because every inserted/updated row's content (id, weight, value texts) is
// bound into the hash with the same framed mixing as TableContentHash.
// Deleted rows are bound by identifier only — their content is already
// bound inside base_hash.
//
// Note the chain hash of a mutated state deliberately differs from
// TableContentHash of the same state: a delta-served entry is keyed by its
// chain, a cold request by its content. The two keys never alias each
// other (both are StableHasher streams with different framing), they just
// don't share cache entries — the price of O(|delta|) instead of
// O(|table|) identity. See docs/ARCHITECTURE.md, "Caching & invalidation
// semantics".

#ifndef FDREPAIR_STORAGE_TABLE_DELTA_H_
#define FDREPAIR_STORAGE_TABLE_DELTA_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace fdrepair {

/// A canonical description of one mutation step between two table states.
/// The id lists are disjoint and sorted ascending (see Canonicalize):
///   inserted — present only in the mutated state;
///   updated  — present in both, at least one cell rewritten (weight
///              changes also count as updates);
///   deleted  — present only in the base state.
struct TableDelta {
  /// Identity of the pre-mutation state: TableContentHash of the base
  /// table for the first delta in a chain, the previous delta's
  /// result_hash afterwards.
  uint64_t base_hash = 0;
  std::vector<TupleId> inserted;
  std::vector<TupleId> updated;
  std::vector<TupleId> deleted;
  /// Identity of the mutated state; must equal
  /// DeltaChainHash(*this, mutated_table) (ValidateDelta enforces this).
  uint64_t result_hash = 0;

  bool empty() const {
    return inserted.empty() && updated.empty() && deleted.empty();
  }

  /// Sorts the three id lists ascending and drops duplicates, the form
  /// DeltaChainHash expects — so the same logical mutation always hashes
  /// the same regardless of the order edits were recorded in.
  void Canonicalize();
};

/// The chain hash of the mutated state reached by applying `delta` to the
/// state identified by delta.base_hash. Reads the new content of
/// inserted/updated rows from `mutated`; O(|delta|), not O(|table|).
/// Requires the delta to be canonical (sorted, disjoint) and every
/// inserted/updated id to resolve in `mutated` — kInvalidArgument
/// otherwise. delta.result_hash itself is ignored (this function computes
/// it).
StatusOr<uint64_t> DeltaChainHash(const TableDelta& delta,
                                  const Table& mutated);

/// Full structural validation of a delta against the mutated table it
/// claims to describe: canonical id lists, pairwise disjoint, inserted and
/// updated ids present in `mutated`, deleted ids absent, and result_hash
/// equal to DeltaChainHash. The service runs this before trusting a
/// delta-keyed cache entry.
Status ValidateDelta(const TableDelta& delta, const Table& mutated);

/// Records mutations against a working copy of a table and emits canonical
/// TableDeltas whose chain hashes compose. Convenience for tests, benches
/// and the replay example — a real client may assemble TableDeltas itself.
///
/// Within one delta, edits to the same id collapse to the client-visible
/// net effect: insert+update stays an insert (the final content is bound
/// by the chain hash anyway), insert+erase disappears entirely,
/// update+erase is an erase, and re-inserting a previously erased id
/// reports an update (same id, new content). Not thread-safe.
class DeltaBuilder {
 public:
  /// Starts a chain at `base`; base_hash = TableContentHash(base), so the
  /// first emitted delta chains off the base table's *content* identity —
  /// the key a cold request for the base table would be cached under.
  explicit DeltaBuilder(const Table& base);

  /// The current (mutated) state.
  const Table& table() const { return table_; }

  /// Appends a fresh tuple (auto-assigned id, weight 1 unless given).
  TupleId Insert(const std::vector<std::string>& values, double weight = 1.0);
  /// Rewrites one cell of the tuple with identifier `id`.
  Status Update(TupleId id, AttrId attr, const std::string& text);
  /// Removes the tuple with identifier `id` (later rows shift down).
  Status Erase(TupleId id);

  /// The canonical delta for every edit since construction or the last
  /// Finish(), with base_hash/result_hash filled in. Resets the recording:
  /// the next Finish() chains off this one's result_hash.
  TableDelta Finish();

 private:
  enum class Edit { kInserted, kUpdated, kDeleted };

  Table table_;
  uint64_t chain_hash_ = 0;
  /// Net per-id effect of the edits recorded since the last Finish().
  std::unordered_map<TupleId, Edit> edits_;
};

}  // namespace fdrepair

#endif  // FDREPAIR_STORAGE_TABLE_DELTA_H_
