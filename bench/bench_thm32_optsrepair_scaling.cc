// E4 — Theorem 3.2: OptSRepair runs in polynomial time and returns an
// optimum. Report: per-tuple cost stays near-flat as n grows on the three
// tractable families (chain / marriage / Example 3.1), plus the greedy-
// matching ablation from DESIGN.md §6 showing why MarriageRep needs a
// *maximum-weight* matching.

#include <chrono>

#include "report_util.h"
#include "common/random.h"
#include "graph/bipartite_matching.h"
#include "srepair/opt_srepair.h"
#include "storage/consistency.h"
#include "storage/distance.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace fdrepair {
namespace {

using benchreport::Banner;
using benchreport::Num;
using benchreport::ReportTable;

void Report() {
  Banner("E4", "Theorem 3.2 — OptSRepair optimality and polynomial scaling");
  ReportTable table({"family", "n", "repair dist", "time (ms)",
                     "us per tuple"});
  // The slug names the tracked JSON metric (see bench/baselines.json);
  // keep it stable even if the display label changes.
  for (const auto& [label, slug, parsed] :
       {std::tuple<std::string, std::string, ParsedFdSet>{
            "chain (office)", "chain", OfficeFds()},
        {"marriage (A<->B->C)", "marriage", DeltaAKeyBToC()},
        {"marriage+chain (ssn)", "ssn", Example31Ssn()}}) {
    // The marriage families pay the matching bound; cap their sweep.
    const bool chain = slug == std::string("chain");
    const int max_n = static_cast<int>(
        benchreport::SmokeCap(chain ? 64000 : 16000, 4000));
    for (int n : {1000, 4000, 16000, 64000}) {
      if (n > max_n) continue;
      Table t = ScalingFamilyTable(parsed, n, 5 + n);
      // Best of three: a single run of a few milliseconds swings up to 3x
      // on a shared runner, and the tracked gates read these numbers.
      StatusOr<std::vector<int>> rows = Status::Internal("not run");
      double ms = 0;
      for (int rep = 0; rep < 3; ++rep) {
        auto start = std::chrono::steady_clock::now();
        rows = OptSRepairRows(parsed.fds, TableView(t));
        auto stop = std::chrono::steady_clock::now();
        FDR_CHECK_MSG(rows.ok(), rows.status().ToString());
        const double rep_ms =
            std::chrono::duration<double, std::milli>(stop - start).count();
        if (rep == 0 || rep_ms < ms) ms = rep_ms;
      }
      Table repair = t.SubsetByRows(*rows);
      FDR_CHECK(Satisfies(repair, parsed.fds));
      table.AddRow({label, Num(n), Num(DistSubOrDie(repair, t)), Num(ms),
                    Num(1000.0 * ms / n)});
      if (n == max_n) {
        benchreport::JsonReport::Get().Add(
            "optsrepair." + slug + "_us_per_tuple", 1000.0 * ms / n, "us");
      }
    }
  }
  table.Print();

  // Ablation: greedy matching instead of maximum-weight matching inside
  // MarriageRep loses optimality. Adversarial instance: greedy grabs the
  // single heavy block and orphans two medium ones.
  ParsedFdSet marriage = DeltaAKeyBToC();
  Table t(marriage.schema);
  t.AddTuple({"a1", "b1", "c"}, 3);
  t.AddTuple({"a1", "b2", "c"}, 2);
  t.AddTuple({"a2", "b1", "c"}, 2);
  auto optimal = OptSRepair(marriage.fds, t);
  FDR_CHECK(optimal.ok());
  // Greedy: sort blocks by weight, take while endpoints free -> keeps only
  // the weight-3 block, deleting weight 4.
  double greedy_deleted = 7 - 3;
  std::cout << "ablation (greedy vs matching in MarriageRep): optimal "
               "deletes weight "
            << Num(DistSubOrDie(*optimal, t)) << ", greedy would delete "
            << Num(greedy_deleted) << " (ratio "
            << Num(greedy_deleted / DistSubOrDie(*optimal, t)) << ")\n";
}

void BM_OptSRepairChain(benchmark::State& state) {
  ParsedFdSet parsed = OfficeFds();
  int n = static_cast<int>(state.range(0));
  Table table = ScalingFamilyTable(parsed, n, 11);
  for (auto _ : state) {
    auto rows = OptSRepairRows(parsed.fds, TableView(table));
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_OptSRepairChain)->RangeMultiplier(4)->Range(1024, benchreport::SmokeCap(262144, 2048))
    ->Unit(benchmark::kMillisecond);

void BM_OptSRepairMarriage(benchmark::State& state) {
  ParsedFdSet parsed = DeltaAKeyBToC();
  int n = static_cast<int>(state.range(0));
  Table table = ScalingFamilyTable(parsed, n, 13);
  for (auto _ : state) {
    auto rows = OptSRepairRows(parsed.fds, TableView(table));
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_OptSRepairMarriage)->RangeMultiplier(4)->Range(1024, benchreport::SmokeCap(16384, 2048))
    ->Unit(benchmark::kMillisecond);

void BM_OptSRepairSsn(benchmark::State& state) {
  ParsedFdSet parsed = Example31Ssn();
  int n = static_cast<int>(state.range(0));
  Table table = ScalingFamilyTable(parsed, n, 17);
  for (auto _ : state) {
    auto rows = OptSRepairRows(parsed.fds, TableView(table));
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_OptSRepairSsn)->RangeMultiplier(4)->Range(1024, benchreport::SmokeCap(8192, 2048))
    ->Unit(benchmark::kMillisecond);

// The matching engine itself, isolated.
void BM_MaxWeightMatching(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(19);
  std::vector<BipartiteEdge> edges;
  for (int e = 0; e < 4 * n; ++e) {
    edges.push_back(BipartiteEdge{static_cast<int>(rng.UniformUint64(n)),
                                  static_cast<int>(rng.UniformUint64(n)),
                                  rng.UniformDouble(0.1, 10)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxWeightBipartiteMatching(n, n, edges));
  }
}
BENCHMARK(BM_MaxWeightMatching)->RangeMultiplier(4)->Range(16, 1024)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace fdrepair

FDR_BENCH_MAIN(fdrepair::Report)
