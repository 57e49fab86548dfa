// Reference (pre-span) §4 route implementations — see reference_routes.h.
// Deliberately kept on per-row std::unordered_map/std::unordered_set
// grouping: these bodies are the historical code the live routes were
// ported from, and their hash containers are exactly what the port removed.

#include "testsupport/reference_routes.h"

#include <unordered_map>

#include "srepair/opt_srepair.h"
#include "srepair/srepair_vc_approx.h"
#include "storage/consistency.h"
#include "storage/distance.h"
#include "urepair/covers.h"
#include "urepair/fresh.h"
#include "urepair/urepair_exact.h"
#include "urepair/urepair_key_cycle.h"

namespace fdrepair {
namespace {

// The weighted-plurality value of a column (first-seen wins ties).
ValueId ReferencePluralityValue(const Table& table, AttrId attr) {
  FDR_CHECK(table.num_tuples() > 0);
  std::unordered_map<ValueId, double> weight_of;
  std::vector<ValueId> order;
  for (int row = 0; row < table.num_tuples(); ++row) {
    ValueId value = table.value(row, attr);
    auto [it, inserted] = weight_of.emplace(value, 0.0);
    if (inserted) order.push_back(value);
    it->second += table.weight(row);
  }
  ValueId best = order.front();
  for (ValueId value : order) {
    if (weight_of[value] > weight_of[best]) best = value;
  }
  return best;
}

StatusOr<Table> ReferenceMlcApproxURepair(const FdSet& fds,
                                          const Table& table) {
  FdSet delta = fds.WithoutTrivial();
  if (!delta.IsConsensusFree()) {
    return Status::FailedPrecondition(
        "MlcApproxURepair requires a consensus-free FD set");
  }
  Table update = table.Clone();
  for (const FdSet& component : delta.AttributeDisjointComponents()) {
    std::vector<int> kept_rows =
        SRepairVcApproxRows(component, TableView(table));
    FDR_ASSIGN_OR_RETURN(Table sub, ReferenceSubsetToUpdate(component, table,
                                                            kept_rows));
    AttrSet attrs = component.Attrs();
    for (int row = 0; row < table.num_tuples(); ++row) {
      ForEachAttr(attrs, [&](AttrId attr) {
        if (sub.value(row, attr) != update.value(row, attr)) {
          update.SetValue(row, attr, sub.value(row, attr));
        }
      });
    }
  }
  return update;
}

StatusOr<Table> ReferenceCommonLhsURepair(const FdSet& fds,
                                          const Table& table) {
  FdSet delta = fds.WithoutTrivial();
  if (!delta.FindCommonLhsAttr().has_value()) {
    return Status::FailedPrecondition(
        "CommonLhsOptimalURepair requires an FD set with a common lhs");
  }
  if (!delta.IsConsensusFree()) {
    return Status::FailedPrecondition(
        "CommonLhsOptimalURepair requires a consensus-free FD set");
  }
  FDR_ASSIGN_OR_RETURN(std::vector<int> kept_rows,
                       OptSRepairRows(delta, TableView(table)));
  return ReferenceSubsetToUpdate(delta, table, kept_rows);
}

}  // namespace

Table ReferenceConsensusPluralityRepair(const Table& table, AttrSet attrs) {
  Table update = table.Clone();
  if (table.num_tuples() == 0) return update;
  ForEachAttr(attrs, [&](AttrId attr) {
    ValueId plurality = ReferencePluralityValue(table, attr);
    for (int row = 0; row < update.num_tuples(); ++row) {
      if (update.value(row, attr) != plurality) {
        update.SetValue(row, attr, plurality);
      }
    }
  });
  return update;
}

double ReferenceConsensusPluralityCost(const Table& table, AttrSet attrs) {
  if (table.num_tuples() == 0) return 0;
  double cost = 0;
  ForEachAttr(attrs, [&](AttrId attr) {
    ValueId plurality = ReferencePluralityValue(table, attr);
    for (int row = 0; row < table.num_tuples(); ++row) {
      if (table.value(row, attr) != plurality) cost += table.weight(row);
    }
  });
  return cost;
}

StatusOr<Table> ReferenceSubsetToUpdate(const FdSet& fds, const Table& table,
                                        const std::vector<int>& kept_rows) {
  if (!fds.IsConsensusFree()) {
    return Status::FailedPrecondition(
        "SubsetToUpdate requires a consensus-free FD set (Theorem 4.3 "
        "removes consensus attributes first)");
  }
  FDR_ASSIGN_OR_RETURN(AttrSet cover, MinimumLhsCover(fds));
  std::vector<char> kept(table.num_tuples(), 0);
  for (int row : kept_rows) {
    FDR_CHECK(row >= 0 && row < table.num_tuples());
    kept[row] = 1;
  }
  Table update = table.Clone();
  for (int row = 0; row < table.num_tuples(); ++row) {
    if (kept[row]) continue;
    ForEachAttr(cover, [&](AttrId attr) {
      update.SetValue(row, attr, FreshCellValue(update, update.id(row), attr));
    });
  }
  return update;
}

StatusOr<Table> ReferenceKeyCycleURepair(const FdSet& fds,
                                         const Table& table) {
  auto cycle = DetectKeyCycle(fds);
  if (!cycle) {
    return Status::FailedPrecondition(
        "KeyCycleOptimalURepair requires ∆ = {A -> B, B -> A}");
  }
  const auto [a, b] = *cycle;
  FdSet delta = fds.WithoutTrivial();
  FDR_ASSIGN_OR_RETURN(std::vector<int> kept_rows,
                       OptSRepairRows(delta, TableView(table)));
  std::vector<char> kept(table.num_tuples(), 0);
  for (int row : kept_rows) kept[row] = 1;

  std::unordered_map<ValueId, ValueId> b_of_a;
  std::unordered_map<ValueId, ValueId> a_of_b;
  for (int row : kept_rows) {
    b_of_a.emplace(table.value(row, a), table.value(row, b));
    a_of_b.emplace(table.value(row, b), table.value(row, a));
  }

  Table update = table.Clone();
  for (int row = 0; row < table.num_tuples(); ++row) {
    if (kept[row]) continue;
    ValueId value_a = table.value(row, a);
    ValueId value_b = table.value(row, b);
    auto via_a = b_of_a.find(value_a);
    if (via_a != b_of_a.end()) {
      update.SetValue(row, b, via_a->second);
      continue;
    }
    auto via_b = a_of_b.find(value_b);
    if (via_b != a_of_b.end()) {
      update.SetValue(row, a, via_b->second);
      continue;
    }
    b_of_a.emplace(value_a, value_b);
    a_of_b.emplace(value_b, value_a);
  }
  return update;
}

StatusOr<Table> ReferenceKlApproxURepair(const FdSet& fds,
                                         const Table& table) {
  FdSet delta = fds.WithoutTrivial();
  if (!delta.IsConsensusFree()) {
    return Status::FailedPrecondition(
        "KlApproxURepair requires a consensus-free FD set");
  }
  TableView view(table);

  std::vector<int> kept_rows = SRepairVcApproxRows(delta, view);
  std::vector<char> kept(table.num_tuples(), 0);
  for (int row : kept_rows) kept[row] = 1;

  std::vector<AttrSet> violated_rhs(table.num_tuples());
  for (const Violation& violation : FindViolations(view, delta)) {
    violated_rhs[violation.row_i] =
        violated_rhs[violation.row_i].With(violation.fd.rhs);
    violated_rhs[violation.row_j] =
        violated_rhs[violation.row_j].With(violation.fd.rhs);
  }

  std::unordered_map<AttrId, AttrSet> core_of;
  auto core = [&](AttrId attr) -> StatusOr<AttrSet> {
    auto it = core_of.find(attr);
    if (it != core_of.end()) return it->second;
    FDR_ASSIGN_OR_RETURN(AttrSet result, MinimumCoreImplicant(delta, attr));
    core_of.emplace(attr, result);
    return result;
  };

  Table update = table.Clone();
  for (int row = 0; row < table.num_tuples(); ++row) {
    if (kept[row]) continue;
    AttrSet cells;
    Status failure = Status::OK();
    ForEachAttr(violated_rhs[row], [&](AttrId attr) {
      if (!failure.ok()) return;
      auto c = core(attr);
      if (!c.ok()) {
        failure = c.status();
        return;
      }
      cells = cells.Union(*c);
    });
    FDR_RETURN_IF_ERROR(failure);
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Fd& fd : delta.fds()) {
        if (cells.Contains(fd.rhs) && !fd.lhs.Intersects(cells)) {
          FDR_ASSIGN_OR_RETURN(AttrSet c, core(fd.rhs));
          AttrSet grown = cells.Union(c);
          if (!(grown == cells)) {
            cells = grown;
            changed = true;
          } else {
            return Status::Internal(
                "core-implicant closure failed to break " + fd.ToString());
          }
        }
      }
    }
    ForEachAttr(cells, [&](AttrId attr) {
      update.SetValue(row, attr, FreshCellValue(update, update.id(row), attr));
    });
  }
  return update;
}

StatusOr<Table> ReferenceCombinedApproxURepair(const FdSet& fds,
                                               const Table& table) {
  FDR_ASSIGN_OR_RETURN(Table mlc_update, ReferenceMlcApproxURepair(fds, table));
  FDR_ASSIGN_OR_RETURN(double mlc_cost, DistUpd(mlc_update, table));
  auto kl_update = ReferenceKlApproxURepair(fds, table);
  if (!kl_update.ok()) {
    if (kl_update.status().code() == StatusCode::kResourceExhausted) {
      return mlc_update;
    }
    return kl_update.status();
  }
  FDR_ASSIGN_OR_RETURN(double kl_cost, DistUpd(*kl_update, table));
  return kl_cost < mlc_cost ? std::move(kl_update).value()
                            : std::move(mlc_update);
}

StatusOr<URepairResult> ReferenceComputeURepair(const FdSet& fds,
                                                const Table& table,
                                                const URepairOptions& options) {
  FDR_ASSIGN_OR_RETURN(URepairPlan plan, PlanURepair(fds));
  Table update = table.Clone();

  auto merge = [&](const Table& sub, AttrSet attrs) {
    FDR_CHECK(sub.num_tuples() == update.num_tuples());
    for (int row = 0; row < sub.num_tuples(); ++row) {
      FDR_CHECK(sub.id(row) == update.id(row));
      ForEachAttr(attrs, [&](AttrId attr) {
        if (update.value(row, attr) != sub.value(row, attr)) {
          update.SetValue(row, attr, sub.value(row, attr));
        }
      });
    }
  };

  bool all_exact = true;
  double achieved_bound = 1.0;

  if (!plan.consensus_attrs.empty()) {
    merge(ReferenceConsensusPluralityRepair(table, plan.consensus_attrs),
          plan.consensus_attrs);
  }

  for (URepairComponentPlan& component : plan.components) {
    const AttrSet attrs = component.fds.Attrs();
    switch (component.route) {
      case URepairRoute::kNoop:
      case URepairRoute::kConsensusPlurality:
        break;
      case URepairRoute::kCommonLhsExact: {
        FDR_ASSIGN_OR_RETURN(Table sub,
                             ReferenceCommonLhsURepair(component.fds, table));
        merge(sub, attrs);
        break;
      }
      case URepairRoute::kKeyCycleExact: {
        FDR_ASSIGN_OR_RETURN(Table sub,
                             ReferenceKeyCycleURepair(component.fds, table));
        merge(sub, attrs);
        break;
      }
      case URepairRoute::kExactSearch:
      case URepairRoute::kCombinedApprox: {
        if (options.allow_exact_search) {
          // The exhaustive search is not a grouping-bound route; the shared
          // implementation (already deterministic via the canonical column
          // symbols of urepair/fresh.h) serves both oracle and live plans.
          ExactURepairOptions exact_options;
          exact_options.max_rows = options.exact_rows_guard;
          exact_options.max_cells = options.exact_cells_guard;
          exact_options.mutable_attrs = attrs;
          auto exact = OptURepairExact(component.fds, table, exact_options);
          if (exact.ok()) {
            merge(*exact, attrs);
            component.route = URepairRoute::kExactSearch;
            component.ratio_bound = 1.0;
            break;
          }
          if (exact.status().code() != StatusCode::kResourceExhausted) {
            return exact.status();
          }
        }
        FDR_ASSIGN_OR_RETURN(
            Table sub, ReferenceCombinedApproxURepair(component.fds, table));
        merge(sub, attrs);
        component.route = URepairRoute::kCombinedApprox;
        all_exact = false;
        break;
      }
    }
    achieved_bound = std::max(achieved_bound, component.ratio_bound);
  }

  FDR_ASSIGN_OR_RETURN(double distance, DistUpd(update, table));
  FDR_CHECK_MSG(Satisfies(update, fds),
                "reference planner produced an inconsistent update for " +
                    fds.ToString());
  URepairResult result{std::move(update), distance, all_exact,
                       all_exact ? 1.0 : achieved_bound, std::move(plan)};
  return result;
}

}  // namespace fdrepair
