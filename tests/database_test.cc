// Tests for the multi-relation Database wrapper: per-relation repairing with
// additive costs (§1: FDs never span relations).

#include <gtest/gtest.h>

#include "database/database.h"
#include "storage/consistency.h"
#include "workloads/example_fdsets.h"
#include "workloads/office.h"

namespace fdrepair {
namespace {

Database MakeTwoRelationDb() {
  Database db;
  OfficeExample office = MakeOfficeExample();
  EXPECT_TRUE(db.AddRelation("office", office.table, office.fds).ok());

  ParsedFdSet orders = ParseFdSetInferSchemaOrDie("item -> cost");
  Table table(orders.schema);
  table.AddTuple({"apple", "1"});
  table.AddTuple({"apple", "2"});  // violates item -> cost
  table.AddTuple({"pear", "3"});
  EXPECT_TRUE(db.AddRelation("orders", std::move(table), orders.fds).ok());
  return db;
}

TEST(DatabaseTest, AddRelationValidation) {
  Database db;
  OfficeExample office = MakeOfficeExample();
  EXPECT_TRUE(db.AddRelation("office", office.table, office.fds).ok());
  // Duplicate name.
  EXPECT_FALSE(db.AddRelation("office", office.table, office.fds).ok());
  // Empty name.
  EXPECT_FALSE(db.AddRelation("", office.table, office.fds).ok());
  // FD set over a wider schema than the table.
  ParsedFdSet wide = ParseFdSetInferSchemaOrDie("A -> B; C -> D; E -> F");
  Table narrow(Schema::Anonymous(2));
  EXPECT_FALSE(db.AddRelation("narrow", narrow, wide.fds).ok());
}

TEST(DatabaseTest, FindAndConsistency) {
  Database db = MakeTwoRelationDb();
  EXPECT_EQ(db.num_relations(), 2);
  ASSERT_TRUE(db.Find("orders").ok());
  EXPECT_FALSE(db.Find("missing").ok());
  EXPECT_FALSE(db.Consistent());  // both relations are dirty
}

TEST(DatabaseTest, SubsetRepairTotalsAdd) {
  Database db = MakeTwoRelationDb();
  auto result = RepairDatabaseSubsets(db);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->optimal);
  // office optimum is 2 (Figure 1); orders optimum is 1 (drop one apple).
  EXPECT_DOUBLE_EQ(result->distance, 3);
  ASSERT_EQ(result->per_relation.size(), 2u);
  for (const auto& [name, repaired] : result->per_relation) {
    const Relation* relation = *db.Find(name);
    EXPECT_TRUE(Satisfies(repaired.repair, relation->fds)) << name;
  }
}

TEST(DatabaseTest, UpdateRepairTotalsAdd) {
  Database db = MakeTwoRelationDb();
  auto result = RepairDatabaseUpdates(db);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->optimal);
  EXPECT_DOUBLE_EQ(result->distance, 3);  // 2 (office) + 1 (orders)
  for (const auto& [name, repaired] : result->per_relation) {
    const Relation* relation = *db.Find(name);
    EXPECT_TRUE(Satisfies(repaired.update, relation->fds)) << name;
    EXPECT_EQ(repaired.update.num_tuples(), relation->table.num_tuples());
  }
}

TEST(DatabaseTest, MixedComplexityRatioBound) {
  Database db;
  OfficeExample office = MakeOfficeExample();
  ASSERT_TRUE(db.AddRelation("office", office.table, office.fds).ok());
  // A hard relation forces the approximate route; the bound propagates.
  ParsedFdSet hard = DeltaAtoBtoC();
  Table table(hard.schema);
  for (int i = 0; i < 30; ++i) {
    table.AddTuple({"a" + std::to_string(i % 3), "b" + std::to_string(i % 5),
                    "c" + std::to_string(i % 2)});
  }
  ASSERT_TRUE(db.AddRelation("hard", std::move(table), hard.fds).ok());
  SRepairOptions options;
  options.strategy = SRepairStrategy::kApproxOnly;
  auto result = RepairDatabaseSubsets(db, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->optimal);
  EXPECT_DOUBLE_EQ(result->ratio_bound, 2.0);
}

TEST(DatabaseTest, EmptyDatabaseIsConsistent) {
  Database db;
  EXPECT_TRUE(db.Consistent());
  auto subsets = RepairDatabaseSubsets(db);
  ASSERT_TRUE(subsets.ok());
  EXPECT_DOUBLE_EQ(subsets->distance, 0);
  EXPECT_TRUE(subsets->optimal);
}

}  // namespace
}  // namespace fdrepair
