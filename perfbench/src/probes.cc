#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <optional>

#include "engine/block_partitioner.h"
#include "engine/thread_pool.h"
#include "graph/bipartite_matching.h"
#include "graph/conflict_graph.h"
#include "srepair/opt_srepair.h"
#include "srepair/osr_succeeds.h"
#include "srepair/planner.h"
#include "srepair/simplification.h"
#include "srepair/soft_repair.h"
#include "storage/table_hash.h"
#include "trace.h"
#include "urepair/opt_urepair.h"

namespace perfbench {
namespace {

using namespace fdrepair;
using Clock = std::chrono::steady_clock;

/// Hash results land here so the timed hashing cannot be optimized away.
volatile uint64_t g_hash_sink = 0;

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

/// Times one call inside a span named after the layer.
template <typename F>
double TimedMs(const char* span, F&& body) {
  ScopedSpan scoped(span);
  const Clock::time_point start = Clock::now();
  body();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

template <typename F>
double MedianMs(const char* span, int reps, F&& body) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) samples.push_back(TimedMs(span, body));
  return Median(samples);
}

template <typename T>
T ValueOrDie(StatusOr<T> result, const char* what) {
  if (!result.ok()) {
    std::cerr << "perfbench: probe " << what << " failed: " << result.status()
              << "\n";
    std::exit(1);
  }
  return std::move(result).value();
}

/// The cover with every weight pinned hard: the structure the subset
/// planner (and the soft planner's peeling) decomposes.
FdSet Hardened(const FdSet& fds) {
  return ValueOrDie(
      fds.WithWeights(std::vector<double>(fds.size(), kHardFdWeight)),
      "WithWeights");
}

double KeptWeight(const Table& table, const std::vector<int>& rows) {
  double weight = 0;
  for (int row : rows) weight += table.weight(row);
  return weight;
}

struct MarriageGraph {
  int num_left = 0;
  int num_right = 0;
  std::vector<BipartiteEdge> edges;
};

/// The top-level marriage graph of Subroutine 3: one edge per
/// PartitionForMarriage block, weighted by the block's optimal sub-repair.
/// None when the cover's first simplification is not an lhs marriage.
std::optional<MarriageGraph> TopMarriageGraph(const FdSet& hard,
                                              const Table& table) {
  const SimplificationStep step = NextSimplification(hard);
  if (step.kind != SimplificationKind::kLhsMarriage) return std::nullopt;
  MarriageGraph graph;
  BlockPartition partition =
      PartitionForMarriage(TableView(table), step.marriage_x1, step.marriage_x2);
  graph.num_left = partition.num_left;
  graph.num_right = partition.num_right;
  for (const RepairBlock& block : partition.blocks) {
    std::vector<int> rows =
        ValueOrDie(OptSRepairRows(step.after, block.view), "block sub-repair");
    graph.edges.push_back({block.left, block.right, KeptWeight(table, rows)});
  }
  return graph;
}

double MatchingMs(const MarriageGraph& graph) {
  return MedianMs("graph.matching", 3, [&] {
    MatchingResult matching = MaxWeightBipartiteMatching(
        graph.num_left, graph.num_right, graph.edges);
    if (matching.total_weight < 0) std::abort();
  });
}

class Samples {
 public:
  void Add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  std::map<std::string, double> Medians() const {
    std::map<std::string, double> out;
    for (const auto& [name, values] : values_) out[name] = Median(values);
    return out;
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// What RepairService::Execute runs for the request, without the service.
void PlannerOnly(const ProbeInput& input, const FdSet& cover,
                 ThreadPool* pool) {
  const Table& table = *input.table;
  if (input.mode == RepairMode::kUpdate) {
    OptURepairOptions options;
    options.exec.pool = pool;
    ValueOrDie(OptURepairCells(cover, table, options), "OptURepairCells");
  } else if (input.mode == RepairMode::kSoft && cover.HasSoftFds()) {
    SoftRepairOptions options;
    options.backend = input.backend;
    ValueOrDie(ComputeSoftRepair(cover, table, options), "ComputeSoftRepair");
  } else {
    SRepairOptions options;
    options.backend = input.backend;
    options.exec.pool = pool;
    ValueOrDie(ComputeSRepair(cover, table, options), "ComputeSRepair");
  }
}

void ProbeInputLayers(const ProbeInput& input, int index, ThreadPool* pool,
                      Samples* samples,
                      std::map<int, std::vector<double>>* matching_ms_by_rows) {
  ScopedSpan probe("probe", kProbeRequestBase + index);
  const Table& table = *input.table;
  const double cells =
      static_cast<double>(table.num_tuples()) * table.schema().arity();
  const double tuples = table.num_tuples();
  const TableView view(table);
  FdSet request_fds = input.fds;
  if (!input.soft_weights.empty()) {
    request_fds = ValueOrDie(input.fds.WithWeights(input.soft_weights),
                             "soft weights");
  }

  // catalog + storage: the fixed per-request costs of keying.
  FdSet cover;
  const double cover_us =
      1e3 * MedianMs("catalog.cover", 51,
                     [&] { cover = request_fds.CanonicalCover(); });
  const FdSet hard = Hardened(cover);
  const double hash_ms = MedianMs("storage.content_hash", 5,
                                  [&] { g_hash_sink = TableContentHash(table); });
  samples->Add("catalog.cover_us", cover_us);
  samples->Add("storage.content_hash_ns_per_cell", hash_ms * 1e6 / cells);

  // service: a miss (cache invalidated before each), then hits, against
  // the planner alone on the same input.
  RepairServiceOptions service_options;
  service_options.engine.threads = pool->num_threads();
  RepairService service(service_options);
  const RepairRequest request = input.Request();
  auto serve = [&] { ValueOrDie(service.Serve(request), "Serve"); };
  std::vector<double> miss_samples;
  for (int r = 0; r < 3; ++r) {
    service.InvalidateCache();
    miss_samples.push_back(TimedMs("service.miss", serve));
  }
  const double miss_ms = Median(miss_samples);
  const double hit_ms = MedianMs("service.hit", 5, serve);
  const double plan_ms =
      MedianMs("planner", 3, [&] { PlannerOnly(input, cover, pool); });
  samples->Add("service.hit_self_us", (hit_ms - hash_ms) * 1e3 - cover_us);
  samples->Add("service.miss_self_us", (miss_ms - plan_ms) * 1e3);
  samples->Add("service.hit_over_plan", hit_ms / plan_ms);

  // engine: the first chain step's partition.
  const SimplificationStep step = NextSimplification(hard);
  if (step.kind == SimplificationKind::kCommonLhs ||
      step.kind == SimplificationKind::kConsensus ||
      step.kind == SimplificationKind::kLhsMarriage) {
    BlockPartition partition;
    const double partition_ms = MedianMs("engine.partition", 3, [&] {
      partition = step.kind == SimplificationKind::kLhsMarriage
                      ? PartitionForMarriage(view, step.marriage_x1,
                                             step.marriage_x2)
                      : PartitionByAttrs(view, step.removed);
    });
    samples->Add("engine.partition_ns_per_tuple", partition_ms * 1e6 / tuples);
    samples->Add("engine.top_blocks",
                 static_cast<double>(partition.blocks.size()));
  }

  // srepair: the hard-side planner with the request's backend, and the soft
  // planner (which delegates to it when every weight is infinite).
  SRepairOptions solver_options;
  solver_options.backend = input.backend;
  solver_options.exec.pool = pool;
  samples->Add("srepair.solver_ms", MedianMs("srepair.solver", 3, [&] {
                 ValueOrDie(ComputeSRepair(hard, table, solver_options),
                            "ComputeSRepair");
               }));
  SoftRepairOptions soft_options;
  soft_options.backend = input.backend;
  const FdSet& soft_cover =
      input.mode == RepairMode::kSoft ? cover : hard;
  samples->Add("srepair.soft_ms", MedianMs("srepair.soft", 3, [&] {
                 ValueOrDie(ComputeSoftRepair(soft_cover, table, soft_options),
                            "ComputeSoftRepair");
               }));

  // graph: the top-level marriage matching (where the cover starts with
  // an lhs marriage) and the conflict graph.
  if (const std::optional<MarriageGraph> marriage =
          TopMarriageGraph(hard, table)) {
    const double matching_ms = MatchingMs(*marriage);
    samples->Add("graph.matching_ms", matching_ms);
    samples->Add("graph.matching_edges",
                 static_cast<double>(marriage->edges.size()));
    samples->Add("graph.matching_share", matching_ms / plan_ms);
    (*matching_ms_by_rows)[table.num_tuples()].push_back(matching_ms);
  }
  std::optional<NodeWeightedGraph> conflicts;
  TimedMs("graph.conflict_graph",
          [&] { conflicts.emplace(BuildConflictGraph(view, hard)); });
  int conflicted = 0;
  for (int node = 0; node < conflicts->num_nodes(); ++node) {
    if (conflicts->Degree(node) > 0) ++conflicted;
  }
  samples->Add("graph.conflict_tuples", conflicted);

  // storage deltas: ~1% edits through DeltaBuilder, then validation and
  // the chain hash the service keys delta requests by.
  Rng rng(0x5eed + index);
  std::vector<double> build_ms, validate_ms, chain_ms;
  std::optional<DeltaBuilder> builder;
  TableDelta delta;
  for (int r = 0; r < 3; ++r) {
    builder.emplace(table);
    build_ms.push_back(TimedMs("storage.delta_build", [&] {
      RecordEdits(&*builder, &rng);
      delta = builder->Finish();
    }));
    validate_ms.push_back(TimedMs("storage.delta_validate", [&] {
      if (!ValidateDelta(delta, builder->table()).ok()) std::abort();
    }));
    chain_ms.push_back(TimedMs("storage.delta_chain_hash", [&] {
      g_hash_sink = ValueOrDie(DeltaChainHash(delta, builder->table()),
                               "DeltaChainHash");
    }));
  }
  samples->Add("storage.delta_build_us", Median(build_ms) * 1e3);
  samples->Add("storage.delta_validate_us", Median(validate_ms) * 1e3);
  samples->Add("storage.delta_chain_hash_us", Median(chain_ms) * 1e3);
  const Table& mutated = builder->table();

  // srepair / urepair on the polynomial side: cold plan per tuple, and the
  // splice of the mutated state against a plan captured before the edits.
  const bool polynomial = OsrSucceeds(hard);
  if (polynomial) {
    OptSRepairRowsOptions cold;
    cold.exec.pool = pool;
    const double plan_rows_ms = MedianMs("srepair.plan", 3, [&] {
      ValueOrDie(OptSRepairRows(hard, view, cold), "OptSRepairRows");
    });
    samples->Add("srepair.plan_us_per_tuple", plan_rows_ms * 1e3 / tuples);
    SRepairPlanCache plan;
    ValueOrDie(OptSRepairRows(hard, view, cold, &plan), "capture");
    OptSRepairRowsOptions splice = cold;
    splice.delta_base = &plan;
    splice.delta_updated_ids = &delta.updated;
    const TableView mutated_view(mutated);
    samples->Add("srepair.splice_us", 1e3 * MedianMs("srepair.splice", 3, [&] {
                   ValueOrDie(OptSRepairRows(hard, mutated_view, splice),
                              "OptSRepairRows splice");
                 }));
  }
  if (polynomial || input.mode == RepairMode::kUpdate) {
    OptURepairOptions cold;
    cold.exec.pool = pool;
    const double uplan_ms = MedianMs("urepair.plan", 3, [&] {
      ValueOrDie(OptURepairCells(hard, table, cold), "OptURepairCells");
    });
    samples->Add("urepair.plan_us_per_tuple", uplan_ms * 1e3 / tuples);
    URepairPlanCache uplan;
    ValueOrDie(OptURepairCells(hard, table, cold, &uplan), "capture");
    OptURepairOptions splice = cold;
    splice.delta_base = &uplan;
    splice.delta_updated_ids = &delta.updated;
    samples->Add("urepair.splice_us", 1e3 * MedianMs("urepair.splice", 3, [&] {
                   auto spliced = OptURepairCells(hard, mutated, splice);
                   // A plan that refuses to splice re-plans in full, as
                   // the service does.
                   if (!spliced.ok() && spliced.status().code() ==
                                            StatusCode::kFailedPrecondition) {
                     spliced = OptURepairCells(hard, mutated, cold);
                   }
                   ValueOrDie(std::move(spliced), "OptURepairCells splice");
                 }));
  }
}

}  // namespace

RepairRequest ProbeInput::Request() const {
  RepairRequest request;
  request.mode = mode;
  request.fds = fds;
  request.table = table;
  request.options.backend = backend;
  request.options.soft_weights = soft_weights;
  return request;
}

void RecordEdits(DeltaBuilder* builder, Rng* rng) {
  const Table& table = builder->table();
  const int rows = table.num_tuples();
  const int arity = table.schema().arity();
  // The generators' value domain (ScalingFamilyTable: n / 16), so edited
  // rows look like the rest of the table.
  const int domain = std::max(4, rows / 16);
  auto value = [&] { return "v" + std::to_string(rng->UniformInt(0, domain - 1)); };
  const int edits = std::max(1, rows / 100);
  for (int e = 0; e < edits; ++e) {
    const double kind = rng->UniformDouble();
    const int row = static_cast<int>(rng->UniformIndex(table.num_tuples()));
    Status status;
    if (kind < 0.8) {
      status = builder->Update(table.id(row),
                               static_cast<AttrId>(rng->UniformIndex(arity)),
                               value());
    } else if (kind < 0.9) {
      std::vector<std::string> values;
      for (int a = 0; a < arity; ++a) values.push_back(value());
      builder->Insert(values);
    } else {
      status = builder->Erase(table.id(row));
    }
    if (!status.ok()) {
      std::cerr << "perfbench: delta edit failed: " << status << "\n";
      std::exit(1);
    }
  }
}

std::map<std::string, double> RunLayerProbes(
    const std::vector<ProbeInput>& inputs, int engine_threads) {
  ThreadPool pool(engine_threads);
  Samples samples;
  // graph.matching_ms by table rows, for graph.matching_scale.
  std::map<int, std::vector<double>> matching_ms_by_rows;
  for (size_t i = 0; i < inputs.size(); ++i) {
    ProbeInputLayers(inputs[i], static_cast<int>(i), &pool, &samples,
                     &matching_ms_by_rows);
  }
  if (!samples.Has("graph.matching_ms")) {
    // No input starts with an lhs marriage: the matching never runs.
    for (const char* name : {"graph.matching_ms", "graph.matching_edges",
                             "graph.matching_share", "graph.matching_scale"}) {
      samples.Add(name, 0);
    }
  } else {
    samples.Add("graph.matching_scale", Median(matching_ms_by_rows[8192]) /
                                            Median(matching_ms_by_rows[4096]));
  }
  return samples.Medians();
}

}  // namespace perfbench
