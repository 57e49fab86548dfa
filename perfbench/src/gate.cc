#include "gate.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <vector>

#include "srepair/opt_srepair.h"
#include "srepair/osr_succeeds.h"
#include "srepair/soft_repair.h"
#include "storage/consistency.h"
#include "storage/distance.h"
#include "storage/table_hash.h"
#include "urepair/opt_urepair.h"
#include "verify/repair_check.h"

namespace perfbench {
namespace {

using namespace fdrepair;

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string Describe(const std::string& what, double got, double want) {
  return what + ": reported " + std::to_string(got) + ", recomputed " +
         std::to_string(want);
}

/// A soft request whose cover kept no finite weight is served (and checked)
/// exactly as a subset request.
bool SubsetRules(RepairMode mode, const FdSet& cover) {
  return mode == RepairMode::kSubset ||
         (mode == RepairMode::kSoft && !cover.HasSoftFds());
}

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

}  // namespace

std::string CheckConsistent(RepairMode mode, const FdSet& cover,
                            const Table& table, const RepairResponse& response) {
  const Table& repair = response.repair;
  double recomputed = 0;
  if (mode == RepairMode::kUpdate) {
    auto distance = DistUpd(repair, table);
    if (!distance.ok()) return "not an update: " + distance.status().ToString();
    if (!Satisfies(repair, cover)) return "update violates an FD";
    recomputed = *distance;
  } else {
    auto distance = DistSub(repair, table);
    if (!distance.ok()) return "not a subset: " + distance.status().ToString();
    if (!Satisfies(repair, cover.HardPart())) return "subset violates a hard FD";
    recomputed = *distance;
    if (!SubsetRules(mode, cover)) {
      recomputed += SoftViolationCost(cover, TableView(repair));
    }
  }
  if (!Near(response.distance, recomputed)) {
    return Describe("distance", response.distance, recomputed);
  }
  if (mode != RepairMode::kUpdate) {
    if (response.lower_bound > response.distance + 1e-9 * (1 + response.distance)) {
      return Describe("lower bound above distance", response.lower_bound,
                      response.distance);
    }
    if (response.optimal && !Near(response.lower_bound, response.distance)) {
      return Describe("optimal but loose lower bound", response.lower_bound,
                      response.distance);
    }
    if (response.achieved_ratio < 1 - 1e-9 ||
        response.achieved_ratio > response.ratio_bound + 1e-9) {
      return "certified ratio " + std::to_string(response.achieved_ratio) +
             " outside [1, " + std::to_string(response.ratio_bound) + "]";
    }
  }
  return "";
}

std::string CheckWithVerifier(RepairMode mode, const FdSet& cover,
                              const Table& table,
                              const RepairResponse& response,
                              double* check_ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  auto elapsed_ms = [&] {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  if (mode == RepairMode::kUpdate) {
    auto check = CheckUpdateRepair(cover, table, response.repair);
    *check_ms = elapsed_ms();
    if (!check.ok()) {
      // Minimality enumeration is capped (2^changed cells); the cap is hit
      // only after consistency was established, so the distance and
      // optimality checks (CheckConsistent, CheckReplan) carry the rest.
      if (check.status().code() == StatusCode::kResourceExhausted) return "";
      return "CheckUpdateRepair: " + check.status().ToString();
    }
    if (check->repair_class == UpdateRepairClass::kNotAConsistentUpdate) {
      return "CheckUpdateRepair: not a consistent update";
    }
    if (!Near(check->distance, response.distance)) {
      return Describe("update distance", response.distance, check->distance);
    }
    if (response.optimal && check->optimality_known &&
        check->repair_class != UpdateRepairClass::kOptimalUpdateRepair) {
      return std::string("claims optimal, verify says ") +
             UpdateRepairClassToString(check->repair_class);
    }
    return "";
  }
  auto check = CheckSubsetRepair(cover, table, response.repair);
  *check_ms = elapsed_ms();
  if (!check.ok()) return "CheckSubsetRepair: " + check.status().ToString();
  if (check->repair_class == SubsetRepairClass::kNotAConsistentSubset) {
    return "CheckSubsetRepair: not a consistent subset";
  }
  if (!Near(check->distance, response.distance)) {
    return Describe("subset distance", response.distance, check->distance);
  }
  if (OsrSucceeds(cover)) {
    if (!check->optimality_known ||
        check->repair_class != SubsetRepairClass::kOptimalSubsetRepair) {
      return std::string("polynomial route not optimal: ") +
             SubsetRepairClassToString(check->repair_class);
    }
    if (!response.optimal) return "polynomial route did not claim optimality";
  } else if (check->optimality_known &&
             check->distance < check->optimal_distance - 1e-9) {
    return Describe("distance below the optimum", check->distance,
                    check->optimal_distance);
  }
  return "";
}

std::string CheckReplan(RepairMode mode, const FdSet& cover,
                        const Table& table, const RepairResponse& response) {
  const Table& repair = response.repair;
  if (mode == RepairMode::kUpdate) {
    auto planned = OptURepairCells(cover, table);
    if (!planned.ok()) return "cold re-plan failed: " + planned.status().ToString();
    if (DoubleBits(planned->distance) != DoubleBits(response.distance) ||
        planned->optimal != response.optimal) {
      return Describe("update distance vs cold re-plan", response.distance,
                      planned->distance);
    }
    if (repair.num_tuples() != table.num_tuples()) return "update row count";
    size_t next_edit = 0;
    const auto& edits = planned->edits;
    const int arity = table.schema().arity();
    for (int row = 0; row < table.num_tuples(); ++row) {
      if (repair.id(row) != table.id(row) ||
          DoubleBits(repair.weight(row)) != DoubleBits(table.weight(row))) {
        return "update row " + std::to_string(row) + " id/weight differs";
      }
      for (AttrId attr = 0; attr < arity; ++attr) {
        const std::string* want = &table.ValueText(row, attr);
        if (next_edit < edits.size() && edits[next_edit].id == table.id(row) &&
            edits[next_edit].attr == attr) {
          want = &edits[next_edit++].text;
        }
        if (repair.ValueText(row, attr) != *want) {
          return "update cell (" + std::to_string(row) + ", " +
                 std::to_string(attr) + ") differs from the cold re-plan";
        }
      }
    }
    if (next_edit != edits.size()) return "update edits left unapplied";
    return "";
  }
  auto rows = OptSRepairRows(cover.HardPart(), TableView(table));
  if (!rows.ok()) return "cold re-plan failed: " + rows.status().ToString();
  if (static_cast<int>(rows->size()) != repair.num_tuples()) {
    return "kept " + std::to_string(repair.num_tuples()) +
           " rows, cold re-plan keeps " + std::to_string(rows->size());
  }
  for (int i = 0; i < repair.num_tuples(); ++i) {
    const int row = (*rows)[i];
    if (repair.id(i) != table.id(row) ||
        DoubleBits(repair.weight(i)) != DoubleBits(table.weight(row)) ||
        repair.tuple(i) != table.tuple(row)) {
      return "kept row " + std::to_string(i) + " differs from the cold re-plan";
    }
  }
  if (!response.optimal) return "polynomial route did not claim optimality";
  return "";
}

uint64_t Fingerprint(const RepairResponse& response) {
  const Table& repair = response.repair;
  StableHasher hasher;
  hasher.MixInt64(repair.num_tuples());
  const int arity = repair.schema().arity();
  for (int row = 0; row < repair.num_tuples(); ++row) {
    hasher.MixInt64(repair.id(row));
    hasher.MixDouble(repair.weight(row));
    for (AttrId attr = 0; attr < arity; ++attr) {
      hasher.MixInt64(repair.value(row, attr));
    }
  }
  hasher.MixDouble(response.distance);
  hasher.MixUint64(response.optimal ? 1 : 0);
  hasher.MixDouble(response.lower_bound);
  return hasher.digest();
}

}  // namespace perfbench
