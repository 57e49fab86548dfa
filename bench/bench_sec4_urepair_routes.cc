// E9 — Section 4's U-repair landscape: the planner's complexity verdict per
// named FD set (Corollaries 4.6/4.8/4.11, Theorem 4.10, Examples 4.2/4.7),
// Corollary 4.11's two separating examples highlighted, scaling of the
// exact polynomial routes, and the span-port payoff: live columnar routes
// vs the preserved hash-map reference (tracked `urepair.span_speedup`,
// floor 1.5x).

#include <chrono>

#include "report_util.h"
#include "common/random.h"
#include "srepair/planner.h"
#include "testsupport/reference_routes.h"
#include "urepair/planner.h"
#include "urepair/urepair_consensus.h"
#include "urepair/urepair_key_cycle.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace fdrepair {
namespace {

using benchreport::Banner;
using benchreport::JsonReport;
using benchreport::Num;
using benchreport::ReportTable;

void ReportSpanSpeedup();

void Report() {
  Banner("E9", "Section 4 — U-repair complexity landscape and routes");
  ReportTable table({"FD set", "S-repair", "U-repair", "route(s)",
                     "U ratio bound"});
  for (const NamedFdSet& named : AllNamedFdSets()) {
    SRepairVerdict s_verdict = ClassifySRepair(named.parsed.fds);
    auto plan = PlanURepair(named.parsed.fds);
    FDR_CHECK(plan.ok());
    std::string routes;
    for (const auto& component : plan->components) {
      if (!routes.empty()) routes += "+";
      routes += URepairRouteToString(component.route);
    }
    if (!plan->consensus_attrs.empty()) {
      routes = routes.empty() ? "consensus-plurality"
                              : "consensus-plurality+" + routes;
    }
    if (routes.empty()) routes = "noop";
    table.AddRow({named.name,
                  s_verdict.polynomial ? "polynomial" : "APX-complete",
                  URepairComplexityToString(plan->complexity), routes,
                  Num(plan->ratio_bound)});
  }
  table.Print();

  std::cout << "\nCorollary 4.11 separations:\n"
            << "  (1) ∆A<->B->C / ∆4: S-repair polynomial, U-repair "
               "APX-complete (Theorem 4.10)\n"
            << "  (2) {A->B, C->D} / ∆0: U-repair polynomial, S-repair "
               "APX-complete (Example 4.2 + Theorem 3.4)\n";
  ReportSpanSpeedup();
}

/// Span-port payoff on the grouping-bound family: the weighted-plurality
/// consensus sweep is a pure group-count-argmax per attribute, so it
/// isolates what the port changed — DenseValueIndex + columnar scans vs
/// the reference's per-attribute unordered_map. A value-diverse table
/// (domain ~ n/8) keeps the reference hash-bound. Both sides must agree
/// bit for bit (the routes test pins this; here it guards the timing).
void ReportSpanSpeedup() {
  using Clock = std::chrono::steady_clock;
  const int n = static_cast<int>(benchreport::SmokeCap(131072, 16384));
  const int rounds = 5;
  ParsedFdSet parsed = OfficeFds();
  Rng rng(94);
  RandomTableOptions options;
  options.num_tuples = n;
  options.domain_size = std::max(16, n / 8);
  Table table = RandomTable(parsed.schema, options, &rng);
  const AttrSet attrs = parsed.schema.AllAttrs();

  double reference_us = 0;
  double live_us = 0;
  double reference_cost = 0;
  double live_cost = 0;
  for (int round = 0; round < rounds; ++round) {
    Clock::time_point start = Clock::now();
    reference_cost = ReferenceConsensusPluralityCost(table, attrs);
    std::chrono::duration<double, std::micro> elapsed = Clock::now() - start;
    reference_us += elapsed.count();

    start = Clock::now();
    live_cost = ConsensusPluralityCost(table, attrs);
    elapsed = Clock::now() - start;
    live_us += elapsed.count();
  }
  FDR_CHECK(reference_cost == live_cost);
  reference_us /= rounds;
  live_us /= rounds;
  const double speedup = live_us > 0 ? reference_us / live_us : 0;

  std::cout << "\nSpan-port payoff (consensus sweep, " << n << " tuples x "
            << parsed.schema.arity() << " attrs, domain "
            << options.domain_size << "):\n";
  ReportTable table_out({"implementation", "us/sweep"});
  table_out.AddRow({"reference (hash-map)", Num(reference_us)});
  table_out.AddRow({"live (span/columnar)", Num(live_us)});
  table_out.Print();
  std::cout << "  span-over-reference speedup: " << Num(speedup) << "x\n";

  JsonReport::Get().Add("urepair.reference_us_per_sweep", reference_us, "us");
  JsonReport::Get().Add("urepair.span_us_per_sweep", live_us, "us");
  JsonReport::Get().Add("urepair.span_speedup", speedup, "x");
}

// Polynomial route scaling: common-lhs exact route (Corollary 4.6).
void BM_CommonLhsRoute(benchmark::State& state) {
  ParsedFdSet parsed = OfficeFds();
  int n = static_cast<int>(state.range(0));
  Rng rng(46 + n);
  RandomTableOptions options;
  options.num_tuples = n;
  options.domain_size = std::max(4, n / 16);
  Table table = RandomTable(parsed.schema, options, &rng);
  URepairOptions planner_options;
  planner_options.allow_exact_search = false;
  for (auto _ : state) {
    auto result = ComputeURepair(parsed.fds, table, planner_options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CommonLhsRoute)->RangeMultiplier(4)->Range(1024, benchreport::SmokeCap(65536, 2048))
    ->Unit(benchmark::kMillisecond);

// Key-cycle exact route (Proposition 4.9).
void BM_KeyCycleRoute(benchmark::State& state) {
  ParsedFdSet parsed = ParseFdSetInferSchemaOrDie("A -> B; B -> A");
  int n = static_cast<int>(state.range(0));
  Rng rng(49 + n);
  RandomTableOptions options;
  options.num_tuples = n;
  options.domain_size = std::max(4, n / 8);
  Table table = RandomTable(parsed.schema, options, &rng);
  for (auto _ : state) {
    auto result = KeyCycleOptimalURepair(parsed.fds, table);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KeyCycleRoute)->RangeMultiplier(4)->Range(1024, benchreport::SmokeCap(65536, 2048))
    ->Unit(benchmark::kMillisecond);

// Decomposed planner on attribute-disjoint unions (Theorem 4.1).
void BM_DisjointUnionPlanner(benchmark::State& state) {
  ParsedFdSet parsed = Delta0Purchase();
  int n = static_cast<int>(state.range(0));
  Rng rng(41 + n);
  RandomTableOptions options;
  options.num_tuples = n;
  options.domain_size = std::max(4, n / 16);
  Table table = RandomTable(parsed.schema, options, &rng);
  URepairOptions planner_options;
  planner_options.allow_exact_search = false;
  for (auto _ : state) {
    auto result = ComputeURepair(parsed.fds, table, planner_options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DisjointUnionPlanner)->RangeMultiplier(4)->Range(1024, benchreport::SmokeCap(32768, 2048))
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fdrepair

FDR_BENCH_MAIN(fdrepair::Report)
