// Stable 64-bit content hashing for tables and request keys.
//
// The serving layer (src/service/) keys its repair cache on table *content*
// — schema, tuple identifiers, values and weights — so two requests carrying
// equal data hash equal regardless of which Table object or ValuePool they
// arrived in.
//
// Digest scheme. Every field is one 64-bit word absorbed by StableHasher's
// multiply-fold mixer (common/stable_hash.h). A cell contributes the
// TextDigest of its value's text, which the ValuePool memoized when the
// value was interned (value_pool.h), so hashing reads one word per cell
// and never the text itself. The table is framed by its arity, its ordered
// attribute names and its row count, then absorbed column by column: the
// tuple-id column, the weight column (IEEE-754 bits), then each attribute's
// cell digests in row order. Each column runs as four interleaved lanes
// (row r into lane r mod 4, each a StableHasher), and the four lane
// digests are then mixed, in lane order, into the table's hasher: four
// independent multiply chains keep the CPU's multiplier busy instead of
// waiting out one chain's latency per cell. The pool's shared lock is
// taken once per attribute column, not once per cell.
//
// Stability contract. The hash is a pure function of (attribute names,
// and per row: id, weight bits, value texts, in row order). Equal content
// hashes equal across pools, value-interning orders, processes, runs,
// standard libraries and host byte orders, so keys can be logged and
// compared; a golden-constant test pins one value (tests/service_test.cc).
// The relation name is deliberately excluded, so "T" vs "Office" copies of
// the same data share a cache entry.

#ifndef FDREPAIR_STORAGE_TABLE_HASH_H_
#define FDREPAIR_STORAGE_TABLE_HASH_H_

#include <cstdint>

#include "common/stable_hash.h"
#include "storage/table.h"

namespace fdrepair {

/// Mixes the memoized text digests of values[0..count) — one row's cells
/// — into `hasher`, one word per value, under one shared lock of `pool`
/// (ValuePool::GatherDigests, the primitive TableContentHash's columns
/// use too). Mixing a value's digest equals MixString of its text.
inline void MixValueDigests(StableHasher* hasher, const ValuePool& pool,
                            const ValueId* values, int count) {
  pool.GatherDigests(values, count,
                     [hasher](const uint64_t* digests, int n) {
                       for (int i = 0; i < n; ++i) hasher->MixUint64(digests[i]);
                     });
}

/// Hashes the full content of `table` as described above: equal content ⇒
/// equal hash across pools, processes and runs.
uint64_t TableContentHash(const Table& table);

}  // namespace fdrepair

#endif  // FDREPAIR_STORAGE_TABLE_HASH_H_
