// Stable hashing: memoized per-value text digests, the column-wise
// TableContentHash and its stability contract (golden constants, equality
// across pools and interning orders, concurrent interning).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stable_hash.h"
#include "storage/table.h"
#include "storage/table_hash.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace fdrepair {
namespace {

/// A small fixed table covering empty, multi-word and non-ASCII texts,
/// explicit ids and fractional weights.
Table GoldenTable(std::shared_ptr<ValuePool> pool) {
  Table table(Schema::MakeOrDie("Golden", {"name", "city"}), std::move(pool));
  EXPECT_TRUE(table.AddTupleWithId(1, {"ann", "haifa"}, 1.0).ok());
  EXPECT_TRUE(
      table.AddTupleWithId(4, {"", "a value longer than eight bytes"}, 2.5)
          .ok());
  EXPECT_TRUE(table.AddTupleWithId(9, {"ann", "⊥t1.0"}, 0.125).ok());
  return table;
}

// Pinned values: keys are logged and compared across runs, processes and
// standard libraries, so any change to the digest scheme must show up
// here. The constants were cross-checked against an independent
// re-implementation of the scheme described in storage/table_hash.h;
// update them only together with a deliberate scheme change.
TEST(TableHashTest, GoldenConstantsPinTheScheme) {
  EXPECT_EQ(TextDigest(""), 0x02c45fcca5b24b2aULL);
  EXPECT_EQ(TextDigest("haifa"), 0x8c2b31d09c586a6fULL);
  EXPECT_EQ(TextDigest("a value longer than eight bytes"),
            0x5885d78528672682ULL);
  EXPECT_EQ(TableContentHash(GoldenTable(std::make_shared<ValuePool>())),
            0xcbd2fc0ebd3e1127ULL);

  // Nine rows: every column runs two full four-lane rounds plus a tail.
  Table wide(Schema::MakeOrDie("Wide", {"k"}));
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(wide.AddTupleWithId(3 * i + 1, {"v" + std::to_string(i % 4)},
                                    1.0 + i / 4.0)
                    .ok());
  }
  EXPECT_EQ(TableContentHash(wide), 0x09105f47fa33ba4aULL);
}

TEST(TableHashTest, MixingADigestEqualsMixingItsText) {
  ValuePool pool;
  const std::vector<ValueId> ids = {pool.Intern("x"), pool.Intern(""),
                                    pool.Intern("0123456789abcdef!"),
                                    pool.FreshValue()};
  StableHasher by_text;
  for (ValueId id : ids) by_text.MixString(pool.Text(id));
  StableHasher by_digest;
  MixValueDigests(&by_digest, pool, ids.data(), static_cast<int>(ids.size()));
  EXPECT_EQ(by_text.digest(), by_digest.digest());
}

// Equal content hashes equal even when the two pools assigned different
// ids to the same texts (reverse interning order, unrelated values first)
// and when cells hold deterministic fresh ⊥ values.
TEST(TableHashTest, EqualContentHashesEqualAcrossInterningOrders) {
  const std::vector<std::string> texts = {"u", "v", "w", "x", "y", "z"};
  auto first = std::make_shared<ValuePool>();
  for (const std::string& text : texts) first->Intern(text);
  auto second = std::make_shared<ValuePool>();
  second->Intern("unrelated");
  second->FreshValue();
  for (auto it = texts.rbegin(); it != texts.rend(); ++it) {
    second->Intern(*it);
  }
  second->FreshValueNamed("⊥t2.1");

  Schema schema = Schema::MakeOrDie("T", {"a", "b"});
  Table a(schema, first);
  Table b(schema, second);
  for (Table* table : {&a, &b}) {
    for (int i = 0; i < 12; ++i) {
      table->AddTuple({texts[i % texts.size()], texts[(i * 5) % texts.size()]},
                      1.0 + i);
    }
    table->SetValue(1, 1, table->FreshValueNamed("⊥t2.1"));
    table->SetValue(3, 0, table->FreshValueNamed("⊥t4.0"));
  }
  ASSERT_NE(a.value(0, 0), b.value(0, 0));  // the ids really differ
  EXPECT_EQ(TableContentHash(a), TableContentHash(b));

  // Same texts, different fresh name: different content.
  b.SetValue(3, 0, b.FreshValueNamed("⊥t5.0"));
  EXPECT_NE(TableContentHash(a), TableContentHash(b));
}

// Hashing reads digests under the pool's shared lock while another thread
// interns into (and may relocate the digest memo of) the same pool. Run
// under the TSan leg; the suite name matches its ValuePool filter.
TEST(ValuePoolDigestTest, ContentHashWhileAnotherThreadInterns) {
  ParsedFdSet parsed = OfficeFds();
  const Table table = ScalingFamilyTable(parsed, 2000, 17);
  const uint64_t expected = TableContentHash(table);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; !done.load(std::memory_order_relaxed); ++i) {
      table.pool()->Intern("interned-concurrently-" + std::to_string(i));
    }
  });
  for (int round = 0; round < 50; ++round) {
    EXPECT_EQ(TableContentHash(table), expected);
  }
  done.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(ValuePoolDigestTest, EveryValueCarriesTheDigestOfItsText) {
  ValuePool pool;
  std::vector<ValueId> ids = {pool.Intern("a"), pool.FreshValue(),
                              pool.FreshValueNamed("⊥x"), pool.Intern("a")};
  std::vector<uint64_t> digests;
  pool.GatherDigests(ids.data(), static_cast<int>(ids.size()),
                     [&digests](const uint64_t* chunk, int n) {
                       digests.insert(digests.end(), chunk, chunk + n);
                     });
  ASSERT_EQ(digests.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(digests[i], TextDigest(pool.Text(ids[i]))) << i;
  }
}

}  // namespace
}  // namespace fdrepair
