// Tests for the storage layer: ValuePool, Table, TableView, consistency
// checks, distances and CSV I/O.

#include <gtest/gtest.h>

#include <unordered_map>

#include "catalog/fd_parser.h"
#include "common/random.h"
#include "storage/consistency.h"
#include "storage/distance.h"
#include "storage/table.h"
#include "storage/table_io.h"
#include "storage/table_view.h"

namespace fdrepair {
namespace {

Table MakeOfficeT() {
  Schema schema =
      Schema::MakeOrDie("Office", {"facility", "room", "floor", "city"});
  Table table(schema);
  EXPECT_TRUE(table.AddTupleWithId(1, {"HQ", "322", "3", "Paris"}, 2).ok());
  EXPECT_TRUE(table.AddTupleWithId(2, {"HQ", "322", "30", "Madrid"}, 1).ok());
  EXPECT_TRUE(table.AddTupleWithId(3, {"HQ", "122", "1", "Madrid"}, 1).ok());
  EXPECT_TRUE(table.AddTupleWithId(4, {"Lab1", "B35", "3", "London"}, 2).ok());
  return table;
}

FdSet OfficeDelta(const Schema& schema) {
  return ParseFdSetOrDie(schema, "facility -> city; facility room -> floor");
}

TEST(ValuePoolTest, InternIsIdempotent) {
  ValuePool pool;
  ValueId a = pool.Intern("Paris");
  EXPECT_EQ(pool.Intern("Paris"), a);
  EXPECT_NE(pool.Intern("Madrid"), a);
  EXPECT_EQ(pool.Text(a), "Paris");
  EXPECT_TRUE(pool.Lookup("Paris").ok());
  EXPECT_FALSE(pool.Lookup("Rome").ok());
}

TEST(ValuePoolTest, FreshValuesAreDistinct) {
  ValuePool pool;
  pool.Intern("⊥0");  // adversarial: user data colliding with fresh names
  ValueId f1 = pool.FreshValue();
  ValueId f2 = pool.FreshValue();
  EXPECT_NE(f1, f2);
  EXPECT_TRUE(pool.IsFresh(f1));
  EXPECT_FALSE(pool.IsFresh(pool.Intern("Paris")));
  EXPECT_NE(pool.Text(f1), "⊥0");  // skipped the collision
}

TEST(TableTest, BasicAccessors) {
  Table table = MakeOfficeT();
  EXPECT_EQ(table.num_tuples(), 4);
  EXPECT_EQ(table.id(0), 1);
  EXPECT_EQ(table.weight(0), 2);
  EXPECT_EQ(table.ValueText(1, 3), "Madrid");
  EXPECT_EQ(*table.RowOf(4), 3);
  EXPECT_FALSE(table.RowOf(99).ok());
  EXPECT_DOUBLE_EQ(table.TotalWeight(), 6);
  EXPECT_FALSE(table.IsUnweighted());
  EXPECT_TRUE(table.IsDuplicateFree());
}

TEST(TableTest, DuplicatesAndWeights) {
  Table table(Schema::Anonymous(2));
  table.AddTuple({"x", "y"});
  table.AddTuple({"x", "y"});
  EXPECT_FALSE(table.IsDuplicateFree());
  EXPECT_TRUE(table.IsUnweighted());
  EXPECT_FALSE(table.AddTupleWithId(1, {"a", "b"}, 1).ok());  // id taken
  EXPECT_FALSE(table.AddTupleWithId(9, {"a", "b"}, 0).ok());  // zero weight
  EXPECT_FALSE(table.AddTupleWithId(9, {"a"}, 1).ok());       // arity
}

TEST(TableTest, SubsetPreservesIdsAndWeights) {
  Table table = MakeOfficeT();
  Table subset = table.SubsetByRows({1, 3});
  EXPECT_EQ(subset.num_tuples(), 2);
  EXPECT_EQ(subset.id(0), 2);
  EXPECT_EQ(subset.weight(1), 2);
  EXPECT_EQ(subset.pool(), table.pool());
}

TEST(TableTest, CloneAndSetValue) {
  Table table = MakeOfficeT();
  Table clone = table.Clone();
  clone.SetValue(0, 3, clone.Intern("Rome"));
  EXPECT_EQ(clone.ValueText(0, 3), "Rome");
  EXPECT_EQ(table.ValueText(0, 3), "Paris");  // original untouched
}

// The column-store invariant: Column(a)[r] == value(r, a) after EVERY
// mutator, including the failure paths. This is the audit for the hybrid
// layout — a stale column view (columns disagreeing with rows) must be
// impossible no matter which mutation path ran.
TEST(TableTest, ColumnStoreStaysInSyncThroughEveryMutator) {
  Table table = MakeOfficeT();  // AddTupleWithId path
  EXPECT_TRUE(table.ColumnStoreConsistent());
  ASSERT_EQ(table.Column(3).size(), 4);
  EXPECT_EQ(table.Column(3)[1], table.value(1, 3));

  // Failed appends (duplicate id, bad weight, arity mismatch) must leave
  // both representations untouched.
  EXPECT_FALSE(table.AddTupleWithId(1, {"a", "b", "c", "d"}, 1).ok());
  EXPECT_FALSE(table.AddTupleWithId(9, {"a", "b", "c", "d"}, -1).ok());
  EXPECT_FALSE(table.AddTupleWithId(9, {"a"}, 1).ok());
  EXPECT_EQ(table.num_tuples(), 4);
  EXPECT_EQ(table.Column(0).size(), 4);
  EXPECT_TRUE(table.ColumnStoreConsistent());

  // AddTuple (auto id) path.
  table.AddTuple({"Lab2", "C1", "2", "Rome"}, 3.0);
  EXPECT_TRUE(table.ColumnStoreConsistent());
  EXPECT_EQ(table.Column(0).size(), 5);

  // SetValue (the urepair cell-edit replay path).
  table.SetValue(2, 3, table.Intern("Lisbon"));
  EXPECT_EQ(table.Column(3)[2], *table.pool()->Lookup("Lisbon"));
  EXPECT_TRUE(table.ColumnStoreConsistent());

  // SubsetByRows and Clone build their mirrors from scratch.
  Table subset = table.SubsetByRows({4, 0, 2});
  EXPECT_TRUE(subset.ColumnStoreConsistent());
  EXPECT_EQ(subset.Column(3)[0], table.Column(3)[4]);
  EXPECT_EQ(subset.Column(3)[2], table.Column(3)[2]);
  Table clone = table.Clone();
  EXPECT_TRUE(clone.ColumnStoreConsistent());
  clone.SetValue(0, 0, clone.Intern("Annex"));
  EXPECT_TRUE(clone.ColumnStoreConsistent());
  EXPECT_TRUE(table.ColumnStoreConsistent());  // original untouched
  EXPECT_NE(clone.Column(0)[0], table.Column(0)[0]);

  // CSV load (TableFromCsv goes through the append paths).
  std::string csv = TableToCsv(table);
  auto loaded = TableFromCsv(csv, table.schema().relation_name());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->ColumnStoreConsistent());
  EXPECT_EQ(loaded->num_tuples(), table.num_tuples());
}

// RowIndex against a std::unordered_map model over random appends
// (including duplicate ids, which must be refused) and row erasures. Ids
// come from a small range with a large stride, so probe runs collide and
// wrap around the slot array.
TEST(TableTest, RowIndexMatchesAMapModelUnderRandomEdits) {
  Rng rng(91);
  RowIndex index;
  std::vector<TupleId> ids;
  auto model = [&ids] {
    std::unordered_map<TupleId, int> rows;
    for (int row = 0; row < static_cast<int>(ids.size()); ++row) {
      rows.emplace(ids[row], row);
    }
    return rows;
  };
  for (int step = 0; step < 4000; ++step) {
    if (!ids.empty() && rng.UniformUint64(4) == 0) {
      ids.erase(ids.begin() + rng.UniformIndex(ids.size()));
      index.Rebuild(static_cast<int>(ids.size()), ids.data());
    } else {
      const TupleId id =
          static_cast<TupleId>(rng.UniformInt(-40, 200)) * (int64_t{1} << 36);
      const bool fresh = model().count(id) == 0;
      ids.push_back(id);
      EXPECT_EQ(index.Insert(static_cast<int>(ids.size()) - 1, ids.data()),
                fresh);
      if (!fresh) ids.pop_back();
    }
    if (step % 37 == 0) {
      const std::unordered_map<TupleId, int> rows = model();
      for (TupleId probe = -40; probe <= 200; ++probe) {
        const TupleId key = probe * (int64_t{1} << 36);
        auto it = rows.find(key);
        ASSERT_EQ(index.Find(key, ids.data()),
                  it == rows.end() ? -1 : it->second)
            << "step " << step << " id " << key;
      }
    }
  }
}

TEST(TableViewTest, GroupByPartitions) {
  Table table = MakeOfficeT();
  TableView view(table);
  auto facility = *table.schema().AttributeId("facility");
  std::vector<TableView> groups = view.GroupBy(AttrSet::Of({facility}));
  ASSERT_EQ(groups.size(), 2u);  // HQ and Lab1
  EXPECT_EQ(groups[0].num_tuples() + groups[1].num_tuples(), 4);
  EXPECT_DOUBLE_EQ(view.TotalWeight(), 6);
}

TEST(TableViewTest, GroupByAllAttrsSeparatesDistinctRows) {
  Table table = MakeOfficeT();
  TableView view(table);
  EXPECT_EQ(view.GroupBy(table.schema().AllAttrs()).size(), 4u);
  EXPECT_EQ(view.GroupBy(AttrSet()).size(), 1u);  // one trivial group
}

TEST(ConsistencyTest, OfficeViolations) {
  Table table = MakeOfficeT();
  FdSet fds = OfficeDelta(table.schema());
  EXPECT_FALSE(Satisfies(table, fds));
  // Tuple 1 conflicts with both 2 (city and floor) and 3 (city).
  std::vector<Violation> violations = FindViolations(TableView(table), fds);
  EXPECT_GE(violations.size(), 3u);
  Table consistent = table.SubsetByRows({1, 2, 3});  // S1 of Figure 1
  EXPECT_TRUE(Satisfies(consistent, fds));
}

TEST(ConsistencyTest, PairConsistent) {
  Table table = MakeOfficeT();
  FdSet fds = OfficeDelta(table.schema());
  EXPECT_FALSE(PairConsistent(table.tuple(0), table.tuple(1), fds));
  EXPECT_TRUE(PairConsistent(table.tuple(1), table.tuple(2), fds));
  EXPECT_TRUE(PairConsistent(table.tuple(0), table.tuple(3), fds));
}

TEST(DistanceTest, DistSubMatchesExample23) {
  Table table = MakeOfficeT();
  EXPECT_DOUBLE_EQ(DistSubOrDie(table.SubsetByRows({1, 2, 3}), table), 2);
  EXPECT_DOUBLE_EQ(DistSubOrDie(table.SubsetByRows({0, 3}), table), 2);
  EXPECT_DOUBLE_EQ(DistSubOrDie(table.SubsetByRows({2, 3}), table), 3);
  EXPECT_DOUBLE_EQ(DistSubOrDie(table.Clone(), table), 0);
}

TEST(DistanceTest, DistSubRejectsNonSubsets) {
  Table table = MakeOfficeT();
  Table tampered = table.SubsetByRows({0});
  tampered.SetValue(0, 0, tampered.Intern("X"));
  EXPECT_FALSE(DistSub(tampered, table).ok());
}

TEST(DistanceTest, DistUpdWeightedHamming) {
  Table table = MakeOfficeT();
  Table update = table.Clone();
  // Change two cells of tuple 1 (weight 2): dist = 4 (like U3).
  update.SetValue(0, 2, update.Intern("30"));
  update.SetValue(0, 3, update.Intern("Madrid"));
  EXPECT_DOUBLE_EQ(DistUpdOrDie(update, table), 4);
  EXPECT_DOUBLE_EQ(DistUpdOrDie(table.Clone(), table), 0);
  EXPECT_EQ(HammingDistance(table.tuple(0), table.tuple(1)), 2);
}

TEST(DistanceTest, DistUpdRejectsDroppedTuples) {
  Table table = MakeOfficeT();
  EXPECT_FALSE(DistUpd(table.SubsetByRows({0, 1}), table).ok());
}

TEST(TableIoTest, CsvRoundTrip) {
  Table table = MakeOfficeT();
  std::string csv = TableToCsv(table);
  auto parsed = TableFromCsv(csv, "Office");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_tuples(), 4);
  EXPECT_EQ(parsed->schema().arity(), 4);
  EXPECT_EQ(parsed->ValueText(0, 3), "Paris");
  EXPECT_DOUBLE_EQ(parsed->weight(0), 2);
  EXPECT_EQ(parsed->id(3), 4);
}

TEST(TableIoTest, CsvWithoutReservedColumns) {
  auto parsed = TableFromCsv("A,B\nx,y\nz,w\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_tuples(), 2);
  EXPECT_DOUBLE_EQ(parsed->weight(0), 1);
  EXPECT_EQ(parsed->id(0), 1);
}

TEST(TableIoTest, CsvErrors) {
  EXPECT_FALSE(TableFromCsv("").ok());
  EXPECT_FALSE(TableFromCsv("A,B\nonly-one-field\n").ok());
  EXPECT_FALSE(TableFromCsv("A,w\nx,notanumber\n").ok());
  EXPECT_FALSE(TableFromCsv("A,id\nx,notanumber\n").ok());
}

TEST(TableTest, ToStringContainsHeaderAndValues) {
  Table table = MakeOfficeT();
  std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("facility"), std::string::npos);
  EXPECT_NE(rendered.find("Paris"), std::string::npos);
  EXPECT_NE(rendered.find("Lab1"), std::string::npos);
}

}  // namespace
}  // namespace fdrepair
