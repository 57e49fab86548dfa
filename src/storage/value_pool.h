// ValuePool: interning of attribute values.
//
// The paper's domain Val is a countably infinite set of values; tables store
// dense integer ids instead of strings so tuple comparisons, group-by and
// FD checks are integer operations. The pool also manufactures *fresh
// constants* — values guaranteed different from every value seen so far —
// which the U-repair constructions rely on (Proposition 4.4 updates lhs-cover
// cells "to a fresh constant from our infinite domain Val").
//
// Every value also carries a memoized *text digest*: TextDigest(text)
// (common/stable_hash.h), computed once when the text is interned and
// stored beside it. It depends only on the text, never on the id or the
// pool, so content hashes built from digests (storage/table_hash.h) agree
// across pools, processes and runs while never re-reading a cell's bytes.
//
// Thread safety: the pool is internally synchronized with a shared_mutex —
// any number of concurrent readers (Lookup/Text/IsFresh/size/digests), and
// writers (Intern/FreshValue) exclusive against both. This is what lets the
// repair engine's blocks share one parent table, and derived repairs share
// one dictionary, across worker threads without copies. References returned
// by Text() stay valid for the pool's lifetime even across concurrent
// interning (values live in a deque, which never relocates elements).
// Digests live in a plain vector, which interning may relocate, so they are
// only read under the shared lock: GatherDigests takes it once per run of
// ids (one table column, one row) instead of once per cell.

#ifndef FDREPAIR_STORAGE_VALUE_POOL_H_
#define FDREPAIR_STORAGE_VALUE_POOL_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace fdrepair {

/// Dense id of an interned value. Ids are pool-local.
using ValueId = int32_t;

/// A bidirectional string <-> ValueId dictionary plus a fresh-value factory.
class ValuePool {
 public:
  ValuePool() = default;

  ValuePool(const ValuePool&) = delete;
  ValuePool& operator=(const ValuePool&) = delete;

  /// Returns the id of `text`, interning it on first sight.
  ValueId Intern(const std::string& text);

  /// Returns the id of `text` or kNotFound if it was never interned.
  StatusOr<ValueId> Lookup(const std::string& text) const;

  /// A value distinct from every value interned or manufactured so far.
  /// Rendered as "⊥<n>"; collisions with user data are prevented by
  /// suffixing until unique.
  ValueId FreshValue();

  /// A fresh value with a caller-chosen *deterministic* name. Unlike
  /// FreshValue, the result depends only on `name` and the pool's user
  /// content, never on how many fresh values were manufactured before:
  ///   - `name` never interned      -> intern it, mark fresh;
  ///   - `name` already fresh       -> return the existing id (replay- and
  ///     re-plan-stable: asking twice is idempotent);
  ///   - `name` interned as user data -> append "'" and retry, so the
  ///     result still differs from every user value, and deterministically
  ///     so for identical user content.
  /// This is what lets update repairs derive ⊥ names from (TupleId, attr)
  /// so cached cell-edit recipes replay bit-identically across pools,
  /// re-plans and thread counts (see urepair/fresh.h).
  ValueId FreshValueNamed(const std::string& name);

  /// True iff `value` was manufactured by FreshValue. Lets tests assert that
  /// repairs only introduce fresh constants where the constructions say so.
  bool IsFresh(ValueId value) const;

  /// The text of an id; requires a valid id from this pool. The reference
  /// is stable for the pool's lifetime.
  const std::string& Text(ValueId value) const;

  /// Number of distinct values (interned + fresh).
  int64_t size() const;

  /// Gathers the memoized digests of values[0..count) — TextDigest of
  /// each value's text — in order, in chunks of at most kDigestChunk words
  /// (a multiple of 4) into a small stack buffer, and calls
  /// fn(const uint64_t* digests, int n) once per chunk. One shared lock
  /// covers the whole run, so `fn` must not call back into this pool.
  /// Every id must come from this pool.
  static constexpr int kDigestChunk = 256;
  template <typename Fn>
  void GatherDigests(const ValueId* values, int count, Fn&& fn) const {
    uint64_t chunk[kDigestChunk];
    std::shared_lock<std::shared_mutex> lock(mu_);
    const uint64_t* digests = digests_.data();
    const auto size = static_cast<uint32_t>(digests_.size());
    for (int begin = 0; begin < count; begin += kDigestChunk) {
      const int n = std::min(kDigestChunk, count - begin);
      for (int i = 0; i < n; ++i) {
        const ValueId value = values[begin + i];
        // One unsigned compare also rejects negative ids.
        FDR_CHECK(static_cast<uint32_t>(value) < size);
        chunk[i] = digests[value];
      }
      fn(static_cast<const uint64_t*>(chunk), n);
    }
  }

 private:
  /// Intern with mu_ already held exclusively.
  ValueId InternLocked(const std::string& text);

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, ValueId> index_;
  /// deque, not vector: growth must not relocate strings that concurrent
  /// readers hold references into.
  std::deque<std::string> texts_;
  /// digests_[id] == TextDigest(texts_[id]), filled by InternLocked.
  std::vector<uint64_t> digests_;
  std::vector<bool> fresh_;
  int64_t fresh_counter_ = 0;
};

}  // namespace fdrepair

#endif  // FDREPAIR_STORAGE_VALUE_POOL_H_
