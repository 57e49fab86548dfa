#include "storage/table_hash.h"

#include <bit>

namespace fdrepair {
namespace {

/// One column's four interleaved lanes: word i goes to lane i % 4. Feed
/// words in runs whose lengths are multiples of 4 (only the last run may
/// be shorter), so the lane of a word is its column position mod 4.
class ColumnLanes {
 public:
  template <typename WordAt>
  void Mix(int count, WordAt word_at) {
    int i = 0;
    for (; i + 4 <= count; i += 4) {
      lane0_.MixUint64(word_at(i));
      lane1_.MixUint64(word_at(i + 1));
      lane2_.MixUint64(word_at(i + 2));
      lane3_.MixUint64(word_at(i + 3));
    }
    if (i < count) lane0_.MixUint64(word_at(i));
    if (i + 1 < count) lane1_.MixUint64(word_at(i + 1));
    if (i + 2 < count) lane2_.MixUint64(word_at(i + 2));
  }

  /// Mixes the four lane digests, in lane order, into `hasher`.
  void FinishInto(StableHasher* hasher) const {
    hasher->MixUint64(lane0_.digest());
    hasher->MixUint64(lane1_.digest());
    hasher->MixUint64(lane2_.digest());
    hasher->MixUint64(lane3_.digest());
  }

 private:
  StableHasher lane0_, lane1_, lane2_, lane3_;
};

}  // namespace

uint64_t TableContentHash(const Table& table) {
  StableHasher hasher;
  const Schema& schema = table.schema();
  hasher.MixUint64(static_cast<uint64_t>(schema.arity()));
  for (AttrId a = 0; a < schema.arity(); ++a) {
    hasher.MixString(schema.AttributeName(a));
  }
  const int rows = table.num_tuples();
  hasher.MixUint64(static_cast<uint64_t>(rows));
  ColumnLanes ids;
  ids.Mix(rows, [&](int row) { return static_cast<uint64_t>(table.id(row)); });
  ids.FinishInto(&hasher);
  ColumnLanes weights;
  weights.Mix(rows, [&](int row) {
    return std::bit_cast<uint64_t>(table.weight(row));
  });
  weights.FinishInto(&hasher);
  for (AttrId a = 0; a < schema.arity(); ++a) {
    ColumnLanes cells;
    table.pool()->GatherDigests(
        table.ColumnData(a), rows, [&cells](const uint64_t* digests, int n) {
          cells.Mix(n, [digests](int i) { return digests[i]; });
        });
    cells.FinishInto(&hasher);
  }
  return hasher.digest();
}

}  // namespace fdrepair
