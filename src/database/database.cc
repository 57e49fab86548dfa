#include "database/database.h"

#include "storage/consistency.h"

namespace fdrepair {

Status Database::AddRelation(std::string name, Table table, FdSet fds) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  for (const Relation& relation : relations_) {
    if (relation.name == name) {
      return Status::InvalidArgument("duplicate relation name: " + name);
    }
  }
  if (!fds.Attrs().IsSubsetOf(table.schema().AllAttrs())) {
    return Status::InvalidArgument(
        "FD set for '" + name + "' mentions attributes outside " +
        table.schema().ToString());
  }
  relations_.push_back(Relation{std::move(name), std::move(table),
                                std::move(fds)});
  return Status::OK();
}

StatusOr<const Relation*> Database::Find(const std::string& name) const {
  for (const Relation& relation : relations_) {
    if (relation.name == name) return &relation;
  }
  return Status::NotFound("no relation named '" + name + "'");
}

bool Database::Consistent() const {
  for (const Relation& relation : relations_) {
    if (!Satisfies(relation.table, relation.fds)) return false;
  }
  return true;
}

namespace {

/// Repairs each relation with `repair(fds, table)` and folds the
/// per-relation provenance into the database total.
template <typename Result, typename Repair>
StatusOr<DatabaseRepairResult<Result>> RepairEachRelation(
    const Database& database, const Repair& repair) {
  DatabaseRepairResult<Result> result;
  std::vector<RepairProvenance> parts;
  for (const Relation& relation : database.relations()) {
    FDR_ASSIGN_OR_RETURN(Result repaired, repair(relation.fds, relation.table));
    parts.push_back(repaired);
    result.per_relation.emplace_back(relation.name, std::move(repaired));
  }
  static_cast<RepairProvenance&>(result) = FoldIndependent(parts);
  return result;
}

}  // namespace

StatusOr<DatabaseSRepairResult> RepairDatabaseSubsets(
    const Database& database, const SRepairOptions& options) {
  return RepairEachRelation<SRepairResult>(
      database, [&](const FdSet& fds, const Table& table) {
        return ComputeSRepair(fds, table, options);
      });
}

StatusOr<DatabaseURepairResult> RepairDatabaseUpdates(
    const Database& database, const URepairOptions& options) {
  return RepairEachRelation<URepairResult>(
      database, [&](const FdSet& fds, const Table& table) {
        return ComputeURepair(fds, table, options);
      });
}

}  // namespace fdrepair
