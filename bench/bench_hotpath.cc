// E13 — Zero-allocation recursion core. The span-based OptSRepair hot path
// (shared row-index buffer + in-place grouping over interned ValueIds +
// per-∆ simplification-chain caching + per-thread scratch arenas) against
// a faithful reimplementation of the pre-span recursion (one materialized
// std::vector<int> per block per level, one heap-allocated ProjectionKey
// per row per level, NextSimplification per node). Single-threaded, since
// the parallel engine multiplies whatever the single-thread core gives it.
// Target: >=2x on deep-recursion instances (>=10k tuples, >=4
// simplification levels); results FDR_CHECKed bit-identical. The baseline
// is the shared oracle of testsupport/reference_recursion.h.

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "report_util.h"
#include "catalog/fd_parser.h"
#include "common/simd.h"
#include "srepair/opt_srepair.h"
#include "srepair/simplification.h"
#include "storage/consistency.h"
#include "storage/row_span.h"
#include "testsupport/reference_recursion.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace fdrepair {
namespace {

using benchreport::Banner;
using benchreport::JsonReport;
using benchreport::Num;
using benchreport::ReportTable;

// --- Workloads.

/// A deep simplification chain over `k` attributes: A0 → A1, A0A1 → A2, …
/// The chain alternates one common-lhs step with k−2 consensus steps —
/// 2(k−1) simplification levels, each re-grouping every surviving tuple.
ParsedFdSet DeepChainFds(int k) {
  std::string spec;
  std::string lhs;
  for (int a = 1; a < k; ++a) {
    if (a > 1) spec += "; ";
    lhs += (a == 1 ? "" : " ");
    lhs += "A" + std::to_string(a - 1);
    spec += lhs + " -> A" + std::to_string(a);
  }
  return ParseFdSetInferSchemaOrDie(spec);
}

double TimeRowsMs(const std::function<StatusOr<std::vector<int>>()>& run,
                  std::vector<int>* rows) {
  // Best of three: min-of-N is the most stable estimator on noisy runners
  // (same protocol as bench_engine_parallel).
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    auto start = std::chrono::steady_clock::now();
    auto result = run();
    auto stop = std::chrono::steady_clock::now();
    FDR_CHECK_MSG(result.ok(), result.status().ToString());
    double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (rep == 0 || ms < best) {
      best = ms;
      *rows = *std::move(result);
    }
  }
  return best;
}

void Report() {
  Banner("hotpath", "Zero-allocation span recursion vs legacy hot path");
  ReportTable table({"workload", "n", "chain", "legacy (ms)", "span (ms)",
                     "speedup"});
  struct Workload {
    std::string label;
    std::string metric;  // JSON metric prefix
    ParsedFdSet parsed;
    int full_n;
    int smoke_n;
  };
  // Deep chain: a 10-step simplification chain (9 attributes: one common
  // lhs, eight consensus steps, termination), re-grouping every surviving
  // tuple at each level; >=10k tuples even in smoke mode, per the
  // acceptance bar for this experiment.
  std::vector<Workload> workloads;
  workloads.push_back(
      {"deep chain (9 attrs)", "deep", DeepChainFds(9), 131072, 16384});
  workloads.push_back(
      {"office chain", "office", OfficeFds(), 262144, 32768});
  workloads.push_back(
      {"marriage (ssn)", "marriage", Example31Ssn(), 65536, 12288});
  for (const Workload& workload : workloads) {
    const int n = static_cast<int>(
        benchreport::SmokeCap(workload.full_n, workload.smoke_n));
    Table t = ScalingFamilyTable(workload.parsed, n, 5 + n);
    TableView view(t);
    const int chain_length =
        SimplificationChain::Compute(workload.parsed.fds).length();

    std::vector<int> legacy_rows;
    double legacy_ms = TimeRowsMs(
        [&] { return ReferenceOptSRepairRows(workload.parsed.fds, view); },
        &legacy_rows);
    std::vector<int> span_rows;
    double span_ms = TimeRowsMs(
        [&] { return OptSRepairRows(workload.parsed.fds, view); }, &span_rows);

    // The acceptance bar: same rows, bit for bit, and a consistent repair.
    FDR_CHECK(span_rows == legacy_rows);
    FDR_CHECK(Satisfies(t.SubsetByRows(span_rows), workload.parsed.fds));

    const double speedup = span_ms > 0 ? legacy_ms / span_ms : 0;
    table.AddRow({workload.label, Num(n), Num(chain_length), Num(legacy_ms),
                  Num(span_ms), Num(speedup)});
    JsonReport::Get().Add("hotpath." + workload.metric + "_legacy_us_per_tuple",
                          1000.0 * legacy_ms / n, "us");
    JsonReport::Get().Add("hotpath." + workload.metric + "_span_us_per_tuple",
                          1000.0 * span_ms / n, "us");
    JsonReport::Get().Add("hotpath." + workload.metric + "_speedup_vs_legacy",
                          speedup, "x");
  }
  table.Print();
  std::cout << "span rows bit-identical to the legacy recursion on every "
               "workload (FDR_CHECKed)\n";

  // --- Marriage scaling: the same sizes in smoke and full runs. Three
  // times the rows should cost about three times the time; a matching
  // that is superlinear in the block graph shows as a ratio well above 4.
  // The two sizes are timed in alternation, best of five rounds, so host
  // drift between them does not skew the ratio.
  Banner("hotpath.marriage_scale", "SSN marriage: n=12288 vs n=4096");
  ReportTable scale_table({"n", "span (ms)"});
  const ParsedFdSet ssn = Example31Ssn();
  const int scale_n[2] = {4096, 12288};
  std::vector<Table> scale_tables;
  for (int n : scale_n) {
    scale_tables.push_back(ScalingFamilyTable(ssn, n, 5 + n));
  }
  double scale_ms[2] = {0, 0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 2; ++i) {
      std::vector<int> rows;
      const double ms = TimeRowsMs(
          [&] { return OptSRepairRows(ssn.fds, TableView(scale_tables[i])); },
          &rows);
      if (round == 0 || ms < scale_ms[i]) scale_ms[i] = ms;
    }
  }
  for (int i = 0; i < 2; ++i) {
    scale_table.AddRow({Num(scale_n[i]), Num(scale_ms[i])});
  }
  scale_table.Print();
  const double scale = scale_ms[0] > 0 ? scale_ms[1] / scale_ms[0] : 0;
  std::cout << "time ratio n=12288 / n=4096: " << Num(scale) << "\n";
  JsonReport::Get().Add("hotpath.marriage_scale_12288_over_4096", scale, "x");

  // --- Columnar + SIMD grouping vs the PR 4 row-major scalar path.
  //
  // Same span recursion both times; only the grouping core differs:
  // row-major scalar (the pre-columnar tuple[attr] loops, SIMD pinned off)
  // vs the columnar layout with automatic SIMD dispatch. Grouping-bound
  // workloads only — marriage instances are matching-bound, so the
  // grouping layout barely moves them. Acceptance bar: >= 1.3x on the deep
  // chain / office family, outputs FDR_CHECKed bit-identical.
  Banner("hotpath.columnar",
         "Columnar+SIMD grouping vs row-major scalar (span recursion)");
  std::cout << "active SIMD dispatch: "
            << simd::SimdModeName(simd::ActiveSimdMode()) << "\n";
  ReportTable columnar_table({"workload", "n", "row-major (ms)",
                              "columnar+simd (ms)", "speedup"});
  struct LayoutWorkload {
    std::string label;
    std::string metric;
    ParsedFdSet parsed;
    int full_n;
    int smoke_n;
    int domain_divisor;
  };
  // domain_divisor 512 keeps σ-blocks ~hundreds of rows at every level
  // (domain n/512 instead of the default n/16, whose blocks collapse to
  // singletons after one level and leave per-block recursion overhead —
  // not grouping — as the bottleneck). These are the instances where
  // grouping dominates, which is exactly what the columnar layout targets.
  std::vector<LayoutWorkload> layout_workloads;
  layout_workloads.push_back({"deep chain (grouping-bound)", "deep",
                              DeepChainFds(9), 131072, 16384, 512});
  layout_workloads.push_back(
      {"office chain (grouping-bound)", "office", OfficeFds(), 262144, 32768,
       512});
  for (const LayoutWorkload& workload : layout_workloads) {
    const int n = static_cast<int>(
        benchreport::SmokeCap(workload.full_n, workload.smoke_n));
    Table t = ScalingFamilyTable(workload.parsed, n, 5 + n,
                                 workload.domain_divisor);
    TableView view(t);

    SetGroupingLayout(GroupingLayout::kRowMajor);
    simd::ForceSimdMode(simd::SimdMode::kScalar);
    std::vector<int> row_major_rows;
    double row_major_ms = TimeRowsMs(
        [&] { return OptSRepairRows(workload.parsed.fds, view); },
        &row_major_rows);

    SetGroupingLayout(GroupingLayout::kColumnar);
    simd::ClearForcedSimdMode();
    std::vector<int> columnar_rows;
    double columnar_ms = TimeRowsMs(
        [&] { return OptSRepairRows(workload.parsed.fds, view); },
        &columnar_rows);

    FDR_CHECK(columnar_rows == row_major_rows);
    FDR_CHECK(Satisfies(t.SubsetByRows(columnar_rows), workload.parsed.fds));

    const double speedup = columnar_ms > 0 ? row_major_ms / columnar_ms : 0;
    columnar_table.AddRow({workload.label, Num(n), Num(row_major_ms),
                           Num(columnar_ms), Num(speedup)});
    JsonReport::Get().Add(
        "hotpath." + workload.metric + "_columnar_us_per_tuple",
        1000.0 * columnar_ms / n, "us");
    JsonReport::Get().Add(
        "hotpath." + workload.metric + "_columnar_speedup_vs_rowmajor",
        speedup, "x");
  }
  columnar_table.Print();
  std::cout << "columnar+SIMD rows bit-identical to the row-major scalar "
               "path on every workload (FDR_CHECKed)\n";
}

void BM_SpanRecursionDeepChain(benchmark::State& state) {
  ParsedFdSet parsed = DeepChainFds(9);
  const int n = static_cast<int>(state.range(0));
  Table table = ScalingFamilyTable(parsed, n, 5 + n);
  TableView view(table);
  for (auto _ : state) {
    auto rows = OptSRepairRows(parsed.fds, view);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpanRecursionDeepChain)
    ->Arg(benchreport::SmokeCap(131072, 16384))
    ->Unit(benchmark::kMillisecond);

void BM_LegacyRecursionDeepChain(benchmark::State& state) {
  ParsedFdSet parsed = DeepChainFds(9);
  const int n = static_cast<int>(state.range(0));
  Table table = ScalingFamilyTable(parsed, n, 5 + n);
  TableView view(table);
  for (auto _ : state) {
    auto rows = ReferenceOptSRepairRows(parsed.fds, view);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LegacyRecursionDeepChain)
    ->Arg(benchreport::SmokeCap(131072, 16384))
    ->Unit(benchmark::kMillisecond);

void BM_SpanRecursionMarriage(benchmark::State& state) {
  ParsedFdSet parsed = Example31Ssn();
  const int n = static_cast<int>(state.range(0));
  Table table = ScalingFamilyTable(parsed, n, 5 + n);
  TableView view(table);
  for (auto _ : state) {
    auto rows = OptSRepairRows(parsed.fds, view);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpanRecursionMarriage)
    ->Arg(benchreport::SmokeCap(65536, 12288))
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fdrepair

FDR_BENCH_MAIN(fdrepair::Report)
