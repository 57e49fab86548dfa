#include "srepair/planner.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "graph/conflict_graph.h"
#include "srepair/opt_srepair.h"
#include "srepair/solver_backend.h"
#include "srepair/srepair_vc_approx.h"

namespace fdrepair {

std::string SRepairVerdict::ToString(const Schema& schema) const {
  std::ostringstream os;
  os << trace.ToString(schema);
  if (hard_class) {
    os << "\nhard side: " << hard_class->ToString(schema);
  }
  return os.str();
}

SRepairVerdict ClassifySRepair(const FdSet& fds) {
  SRepairVerdict verdict;
  verdict.trace = RunOsrSucceeds(fds);
  verdict.polynomial = verdict.trace.succeeds;
  if (!verdict.polynomial) {
    auto classification = ClassifyNonSimplifiable(verdict.trace.stuck_fds);
    // Stuck residuals always classify (Lemma A.22); a failure here would be
    // an internal bug, surfaced loudly by tests but tolerated in release.
    if (classification.ok()) {
      verdict.hard_class = *classification;
    }
  }
  return verdict;
}

const char* SRepairAlgorithmToString(SRepairAlgorithm algorithm) {
  switch (algorithm) {
    case SRepairAlgorithm::kOptSRepair:
      return "OptSRepair";
    case SRepairAlgorithm::kExactBranchAndBound:
      return "exact-branch-and-bound";
    case SRepairAlgorithm::kIlpBranchAndBound:
      return "ilp-branch-and-bound";
    case SRepairAlgorithm::kVertexCover2Approx:
      return "vertex-cover-2-approx";
    case SRepairAlgorithm::kLpRounding:
      return "lp-rounding";
  }
  return "unknown";
}

namespace {

/// kAuto's ILP fallback self-limits so oversized hard instances degrade to
/// the (factor-2) incumbent instead of searching without bound. Structured
/// near-clean instances prove optimality in tens of nodes thanks to the NT
/// kernelization; dense high-gap instances would burn any budget, so a
/// small one keeps kAuto's per-instance overhead in the tens of
/// milliseconds even when the proof is out of reach.
constexpr long kAutoIlpNodeBudget = 2000;

SRepairAlgorithm AlgorithmForBackend(const SolverBackend& backend) {
  const std::string name = backend.name();
  if (name == kSolverBnb) return SRepairAlgorithm::kExactBranchAndBound;
  if (name == kSolverIlp) return SRepairAlgorithm::kIlpBranchAndBound;
  if (name == kSolverLpRounding) return SRepairAlgorithm::kLpRounding;
  if (name == kSolverLocalRatio) {
    return SRepairAlgorithm::kVertexCover2Approx;
  }
  // External backends map to the closest provenance bucket.
  return backend.exact() ? SRepairAlgorithm::kIlpBranchAndBound
                         : SRepairAlgorithm::kVertexCover2Approx;
}

/// The conflict graph restricted to its conflicted core (tuples with at
/// least one conflict) — the only part a cover solver explores; isolated
/// tuples are always kept.
struct ConflictedCore {
  std::vector<int> core;  // view indices with at least one conflict
  NodeWeightedGraph graph{0};

  ConflictedCore(const FdSet& fds, const TableView& view) {
    NodeWeightedGraph full = BuildConflictGraph(view, fds);
    std::vector<int> core_index(view.num_tuples(), -1);
    for (int i = 0; i < view.num_tuples(); ++i) {
      if (full.Degree(i) > 0) {
        core_index[i] = static_cast<int>(core.size());
        core.push_back(i);
      }
    }
    graph = NodeWeightedGraph(static_cast<int>(core.size()));
    for (size_t c = 0; c < core.size(); ++c) {
      graph.set_weight(static_cast<int>(c), view.weight(core[c]));
    }
    for (const auto& [u, v] : full.edges()) {
      graph.AddEdge(core_index[u], core_index[v]);
    }
  }
};

/// Runs a cover backend on the conflicted core and complements back to
/// sorted kept rows; *cover receives the solver's certificate.
/// Non-optimal covers go through the greedy restore so no deletable weight
/// is stranded (restoring after a *minimum* cover is a no-op by
/// ⊆-maximality, so the optimal path skips it).
StatusOr<std::vector<int>> SolveHardRows(const SolverBackend& backend,
                                         const FdSet& fds,
                                         const TableView& view,
                                         const ConflictedCore& cc,
                                         const SolverExec& exec,
                                         SolverCover* cover) {
  FDR_ASSIGN_OR_RETURN(*cover, backend.SolveCover(cc.graph, exec));
  std::vector<char> deleted(view.num_tuples(), 0);
  for (int c : cover->cover) deleted[cc.core[c]] = 1;
  std::vector<int> kept;
  for (int i = 0; i < view.num_tuples(); ++i) {
    if (!deleted[i]) kept.push_back(view.row(i));
  }
  if (!cover->optimal) kept = RestoreConsistentRows(fds, view, std::move(kept));
  std::sort(kept.begin(), kept.end());
  return kept;
}

}  // namespace

StatusOr<SRepairResult> ComputeSRepair(const FdSet& fds, const Table& table,
                                       const SRepairOptions& options) {
  if (options.exec.has_deadline() &&
      std::chrono::steady_clock::now() >= options.exec.deadline) {
    return Status::DeadlineExceeded(
        "S-repair deadline expired before planning started");
  }
  SRepairVerdict verdict = ClassifySRepair(fds);

  // `solver` is null on the polynomial OptSRepair route.
  auto finish = [&](const std::vector<int>& kept_rows, bool optimal,
                    double ratio, double lower_bound,
                    const SolverBackend* solver) -> StatusOr<SRepairResult> {
    Table repair = table.SubsetByRows(kept_rows);
    FDR_ASSIGN_OR_RETURN(double distance, DistSub(repair, table));
    const SRepairAlgorithm algorithm = solver != nullptr
                                           ? AlgorithmForBackend(*solver)
                                           : SRepairAlgorithm::kOptSRepair;
    SRepairResult result{Certify(distance, optimal, ratio, lower_bound),
                         std::move(repair), algorithm, std::move(verdict)};
    result.route = SRepairAlgorithmToString(algorithm);
    if (solver != nullptr) result.backend = solver->name();
    FDR_RETURN_IF_ERROR(CheckMaxRatio(result, options.max_ratio));
    return result;
  };

  SolverExec solver_exec;
  solver_exec.deadline = options.exec.deadline;
  solver_exec.node_budget = options.node_budget;
  const TableView view(table);

  // An explicitly named backend overrides both the dichotomy route and the
  // strategy's solver choice (kExactOnly still demands a proved optimum).
  const SolverBackend* backend = nullptr;
  if (!options.backend.empty()) {
    backend = FindSolverBackend(options.backend);
    if (backend == nullptr) {
      return Status::InvalidArgument("unknown solver backend '" +
                                     options.backend + "'");
    }
  } else if (options.strategy == SRepairStrategy::kApproxOnly) {
    backend = FindSolverBackend(kSolverLocalRatio);
  }

  if (backend == nullptr && verdict.polynomial) {
    StatusOr<std::vector<int>> rows = Status::Internal("unset");
    OptSRepairRowsOptions row_options;
    row_options.exec = options.exec;
    if (options.delta_base != nullptr) {
      FDR_CHECK_MSG(options.delta_updated_ids != nullptr,
                    "delta_base set without delta_updated_ids");
      OptSRepairRowsOptions delta_options = row_options;
      delta_options.delta_base = options.delta_base;
      delta_options.delta_updated_ids = options.delta_updated_ids;
      delta_options.splice_stats = options.splice_stats;
      rows = OptSRepairRows(fds, view, delta_options, options.capture);
      if (!rows.ok() &&
          rows.status().code() == StatusCode::kFailedPrecondition) {
        // Non-spliceable base plan or instance: exactly the cases where a
        // cold run is cheap. Re-plan in full (refreshing the capture).
        rows = OptSRepairRows(fds, view, row_options, options.capture);
      }
    } else {
      rows = OptSRepairRows(fds, view, row_options, options.capture);
    }
    FDR_RETURN_IF_ERROR(rows.status());
    return finish(*rows, true, 1.0, 0, nullptr);
  }

  if (backend != nullptr && backend->has_fused_rows()) {
    // The fused table-level route never materializes the Θ(n²) conflict
    // graph; it reports its local-ratio burn as the lower bound. Flags
    // match the historical approximate route: never claimed optimal,
    // a-priori factor 2.
    double lower_bound = 0;
    FDR_ASSIGN_OR_RETURN(
        std::vector<int> kept_rows,
        backend->SolveRowsFused(fds, view, solver_exec, &lower_bound));
    return finish(kept_rows, false, 2.0, lower_bound, backend);
  }

  const ConflictedCore cc(fds, view);
  if (backend == nullptr) {
    // Strategy routing on the hard side: plain branch and bound while the
    // conflicted core fits under the guard (cheap, no LP machinery), the
    // LP-guided ILP beyond it.
    if (static_cast<int>(cc.core.size()) <= options.exact_guard) {
      backend = FindSolverBackend(kSolverBnb);
    } else {
      backend = FindSolverBackend(kSolverIlp);
      if (options.strategy == SRepairStrategy::kAuto &&
          options.node_budget < 0) {
        solver_exec.node_budget = kAutoIlpNodeBudget;
      }
    }
    FDR_CHECK(backend != nullptr);
  }

  SolverCover cover;
  FDR_ASSIGN_OR_RETURN(
      std::vector<int> kept_rows,
      SolveHardRows(*backend, fds, view, cc, solver_exec, &cover));
  if (!cover.optimal && options.strategy == SRepairStrategy::kExactOnly) {
    if (solver_exec.expired()) {
      return Status::DeadlineExceeded(
          "S-repair deadline expired before optimality was proved");
    }
    return Status::ResourceExhausted(
        "solver node budget exhausted before optimality was proved");
  }
  return finish(kept_rows, cover.optimal, cover.ratio_bound,
                cover.lower_bound, backend);
}

}  // namespace fdrepair
