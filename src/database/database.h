// Multi-relation databases. FDs never span relations, so (§1) "in a general
// database, our results can be applied to each relation individually": a
// Database is a set of named (table, FD set) pairs, and a database repair is
// the union of per-relation repairs, with costs adding up.

#ifndef FDREPAIR_DATABASE_DATABASE_H_
#define FDREPAIR_DATABASE_DATABASE_H_

#include <string>
#include <vector>

#include "srepair/planner.h"
#include "urepair/planner.h"

namespace fdrepair {

/// One relation with its integrity constraints.
struct Relation {
  std::string name;
  Table table;
  FdSet fds;
};

/// An ordered collection of uniquely named relations.
class Database {
 public:
  Database() = default;

  /// Adds a relation; fails on duplicate names or FDs mentioning attributes
  /// outside the relation's schema.
  Status AddRelation(std::string name, Table table, FdSet fds);

  int num_relations() const { return static_cast<int>(relations_.size()); }
  const std::vector<Relation>& relations() const { return relations_; }
  StatusOr<const Relation*> Find(const std::string& name) const;

  /// True iff every relation satisfies its FD set.
  bool Consistent() const;

 private:
  std::vector<Relation> relations_;
};

/// Per-relation repairs; the inherited provenance is their FoldIndependent
/// total (relations are independent, so distances add and the database
/// repair is optimal iff every relation's is).
template <typename Result>
struct DatabaseRepairResult : RepairProvenance {
  std::vector<std::pair<std::string, Result>> per_relation;
};
using DatabaseSRepairResult = DatabaseRepairResult<SRepairResult>;
using DatabaseURepairResult = DatabaseRepairResult<URepairResult>;

/// Repairs every relation by tuple deletions (§3 machinery per relation).
StatusOr<DatabaseSRepairResult> RepairDatabaseSubsets(
    const Database& database, const SRepairOptions& options = {});

/// Repairs every relation by value updates (§4 machinery per relation).
StatusOr<DatabaseURepairResult> RepairDatabaseUpdates(
    const Database& database, const URepairOptions& options = {});

}  // namespace fdrepair

#endif  // FDREPAIR_DATABASE_DATABASE_H_
