#include "storage/distance.h"

#include <algorithm>

namespace fdrepair {

StatusOr<double> DistSub(const Table& subset, const Table& table) {
  if (!(subset.schema() == table.schema())) {
    return Status::InvalidArgument("schema mismatch in DistSub");
  }
  if (subset.pool() != table.pool()) {
    return Status::InvalidArgument(
        "DistSub requires tables sharing a value pool");
  }
  double kept = 0;
  for (int row = 0; row < subset.num_tuples(); ++row) {
    auto parent_row = table.RowOf(subset.id(row));
    if (!parent_row.ok()) {
      return Status::InvalidArgument(
          "subset tuple id " + std::to_string(subset.id(row)) +
          " not present in the original table");
    }
    if (subset.tuple(row) != table.tuple(*parent_row)) {
      return Status::InvalidArgument(
          "subset changed the values of tuple id " +
          std::to_string(subset.id(row)));
    }
    if (subset.weight(row) != table.weight(*parent_row)) {
      return Status::InvalidArgument(
          "subset changed the weight of tuple id " +
          std::to_string(subset.id(row)));
    }
    kept += table.weight(*parent_row);
  }
  return table.TotalWeight() - kept;
}

int HammingDistance(const Tuple& u, const Tuple& t) {
  FDR_CHECK(u.size() == t.size());
  int distance = 0;
  for (size_t a = 0; a < u.size(); ++a) {
    if (u[a] != t[a]) ++distance;
  }
  return distance;
}

StatusOr<double> DistUpd(const Table& update, const Table& table) {
  if (!(update.schema() == table.schema())) {
    return Status::InvalidArgument("schema mismatch in DistUpd");
  }
  if (update.num_tuples() != table.num_tuples()) {
    return Status::InvalidArgument("update must keep every tuple identifier");
  }
  double distance = 0;
  for (int row = 0; row < update.num_tuples(); ++row) {
    auto parent_row = table.RowOf(update.id(row));
    if (!parent_row.ok()) {
      return Status::InvalidArgument(
          "update tuple id " + std::to_string(update.id(row)) +
          " not present in the original table");
    }
    if (update.weight(row) != table.weight(*parent_row)) {
      return Status::InvalidArgument("update changed a tuple weight");
    }
    distance += table.weight(*parent_row) *
                HammingDistance(update.tuple(row), table.tuple(*parent_row));
  }
  return distance;
}

double DistSubOrDie(const Table& subset, const Table& table) {
  auto result = DistSub(subset, table);
  FDR_CHECK_MSG(result.ok(), result.status().ToString());
  return *result;
}

double DistUpdOrDie(const Table& update, const Table& table) {
  auto result = DistUpd(update, table);
  FDR_CHECK_MSG(result.ok(), result.status().ToString());
  return *result;
}

namespace {
constexpr double kEps = 1e-9;
}  // namespace

RepairProvenance Certify(double distance, bool optimal, double ratio,
                         double lower_bound) {
  RepairProvenance provenance;
  provenance.distance = distance;
  provenance.optimal = optimal;
  provenance.ratio_bound = optimal ? 1.0 : ratio;
  provenance.lower_bound = optimal ? distance : lower_bound;
  provenance.achieved_ratio =
      provenance.lower_bound > kEps
          ? std::max(1.0, distance / provenance.lower_bound)
          : 1.0;
  return provenance;
}

Status CheckMaxRatio(const RepairProvenance& provenance, double max_ratio) {
  if (max_ratio <= 0) return Status::OK();
  // The certified per-instance ratio can beat the a-priori bound, so the
  // gate accepts whichever certificate is stronger.
  const double certified =
      std::min(provenance.ratio_bound, provenance.achieved_ratio);
  if (certified > max_ratio + kEps) {
    return Status::ResourceExhausted(
        "repair certified only within ratio " + std::to_string(certified) +
        ", above the requested max_ratio " + std::to_string(max_ratio));
  }
  return Status::OK();
}

RepairProvenance FoldIndependent(const std::vector<RepairProvenance>& parts) {
  RepairProvenance sum;
  sum.optimal = true;
  std::vector<std::string> backends;  // distinct, in first-use order
  for (const RepairProvenance& part : parts) {
    sum.distance += part.distance;
    sum.lower_bound += part.lower_bound;
    sum.optimal = sum.optimal && part.optimal;
    sum.ratio_bound = std::max(sum.ratio_bound, part.ratio_bound);
    if (!part.backend.empty() &&
        std::find(backends.begin(), backends.end(), part.backend) ==
            backends.end()) {
      backends.push_back(part.backend);
    }
  }
  RepairProvenance whole =
      Certify(sum.distance, sum.optimal, sum.ratio_bound, sum.lower_bound);
  for (const std::string& name : backends) {
    whole.backend += (whole.backend.empty() ? "" : "+") + name;
  }
  return whole;
}

}  // namespace fdrepair
