// E-service: the serving layer's cache economics.
//
// Cold latency (every request misses and runs the planner) vs warm latency
// (every request replays a cached recipe), plus a hit-ratio sweep that
// replays request streams with a configurable repeat probability — the
// serving shape the ROADMAP's "heavy traffic" target implies. Tracked
// metrics: cold/warm us-per-request, the warm-over-cold speedup
// (`service.warm_speedup`, baseline 1.62x) and the mixed-stream speedup at
// a 90% repeat ratio (`service.speedup_repeat90`, baseline 1.52x), plus
// the incremental
// delta path: warm dirty-block re-repair vs a full re-plan of the same
// mutated state at a <=1% mutation rate (the acceptance floor is 3x), in
// both repair modes — kept-id recipe splicing for subset repairs
// (`service.delta_speedup`) and cell-edit recipe splicing for update
// repairs (`service.udelta_speedup`, floor 2x). Finally, what one cache hit
// costs against the planner it fronts, at n=8192: the content hash per
// cell (`service.content_hash_ns_per_cell`) and a warm hit over
// planner-only time (`service.warm_hit_over_plan`, gated below 1.0).

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "common/random.h"
#include "report_util.h"
#include "service/repair_service.h"
#include "srepair/planner.h"
#include "storage/table_delta.h"
#include "storage/table_hash.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace {

using namespace fdrepair;
using benchreport::JsonReport;
using benchreport::Num;
using benchreport::ReportTable;
using Clock = std::chrono::steady_clock;

int TupleCount() {
  return static_cast<int>(benchreport::SmokeCap(8192, 1024));
}

struct Population {
  ParsedFdSet parsed;
  std::vector<Table> tables;
};

/// `count` distinct office-chain instances (distinct seeds => distinct
/// content hashes).
Population MakePopulation(int count, int tuples) {
  Population population{OfficeFds(), {}};
  population.tables.reserve(count);
  for (int i = 0; i < count; ++i) {
    population.tables.push_back(
        ScalingFamilyTable(population.parsed, tuples, 1000 + i));
  }
  return population;
}

double ServeAll(RepairService* service, const Population& population,
                const std::vector<int>& order, bool bypass_cache) {
  Clock::time_point start = Clock::now();
  for (int index : order) {
    RepairRequest request;
    request.mode = RepairMode::kSubset;
    request.fds = population.parsed.fds;
    request.table = &population.tables[index];
    request.options.bypass_cache = bypass_cache;
    auto response = service->Serve(request);
    if (!response.ok()) {
      std::cerr << "serve failed: " << response.status() << "\n";
      std::exit(1);
    }
  }
  std::chrono::duration<double, std::micro> elapsed = Clock::now() - start;
  return elapsed.count() / static_cast<double>(order.size());
}

void ReportColdVsWarm() {
  const int tuples = TupleCount();
  const int distinct = 8;
  Population population = MakePopulation(distinct, tuples);
  std::vector<int> order;
  for (int i = 0; i < distinct; ++i) order.push_back(i);

  RepairService service;
  double cold_us =
      ServeAll(&service, population, order, /*bypass_cache=*/false);
  double warm_us =
      ServeAll(&service, population, order, /*bypass_cache=*/false);
  double speedup = warm_us > 0 ? cold_us / warm_us : 0;

  ReportTable table({"phase", "requests", "us/request"});
  table.AddRow({"cold (all miss)", std::to_string(distinct), Num(cold_us)});
  table.AddRow({"warm (all hit)", std::to_string(distinct), Num(warm_us)});
  table.Print();
  std::cout << "  warm-over-cold speedup: " << Num(speedup) << "x\n";

  JsonReport::Get().Add("service.cold_us_per_request", cold_us, "us");
  JsonReport::Get().Add("service.warm_us_per_request", warm_us, "us");
  JsonReport::Get().Add("service.warm_speedup", speedup, "x");
}

void ReportHitRatioSweep() {
  const int tuples = TupleCount();
  const int requests = 200;
  // Worst case (repeat 0) touches `requests` distinct tables.
  Population population = MakePopulation(requests, tuples);

  ReportTable table({"repeat ratio", "requests", "distinct", "us/request",
                     "hit ratio", "vs cold"});
  for (double repeat : {0.0, 0.5, 0.9, 0.99}) {
    // With probability `repeat` a request re-sends an already-seen
    // instance; otherwise it introduces a fresh one.
    Rng rng(static_cast<uint64_t>(repeat * 1000) + 7);
    std::vector<int> stream;
    std::vector<int> seen;
    stream.reserve(requests);
    int next_new = 0;
    for (int r = 0; r < requests; ++r) {
      if (!seen.empty() && rng.UniformDouble() < repeat) {
        stream.push_back(seen[rng.UniformIndex(seen.size())]);
      } else {
        stream.push_back(next_new);
        seen.push_back(next_new);
        ++next_new;
      }
    }
    // Cold reference: the identical stream with the cache bypassed.
    RepairService cold_service;
    double cold_us =
        ServeAll(&cold_service, population, stream, /*bypass_cache=*/true);
    RepairService service;
    double us = ServeAll(&service, population, stream, /*bypass_cache=*/false);
    RepairServiceStats stats = service.stats();
    double hit_ratio = static_cast<double>(stats.hits) /
                       static_cast<double>(stats.hits + stats.misses);
    double speedup = us > 0 ? cold_us / us : 0;
    table.AddRow({Num(repeat), std::to_string(requests),
                  std::to_string(next_new), Num(us), Num(hit_ratio),
                  Num(speedup) + "x"});
    if (repeat == 0.9) {
      JsonReport::Get().Add("service.speedup_repeat90", speedup, "x");
      JsonReport::Get().Add("service.hit_ratio_repeat90", hit_ratio, "");
    }
  }
  table.Print();
}

/// Incremental serving: chained 1%-mutation batches served through
/// ApplyDelta (dirty-block splicing against the cached plan) vs a
/// bypass-cache full re-plan of the identical mutated state. Both sides
/// pay their own identity cost — O(|delta|) chain hash vs O(table)
/// content hash — so the speedup is end-to-end, not planner-only.
void ReportDeltaSpeedup() {
  // Fixed size (no smoke cap): the tracked speedup compares an O(|delta|)
  // path against an O(table) one, so shrinking the table in smoke runs
  // would change the metric's meaning — and a single 8K instance is cheap
  // enough for CI either way.
  const int tuples = 8192;
  const int edits_per_round = std::max(1, tuples / 100);  // 1% mutation
  // Enough rounds to average out scheduler noise on small CI runners; each
  // round is a few ms, so this stays cheap even in smoke mode.
  const int rounds = 16;
  Population population = MakePopulation(1, tuples);
  const Table& base = population.tables[0];
  // Update values draw from the generator's own domain so mutated tables
  // stay structurally similar to cold ones.
  const int domain = std::max(4, tuples / 16);

  RepairService service;
  RepairRequest prime;
  prime.mode = RepairMode::kSubset;
  prime.fds = population.parsed.fds;
  prime.table = &base;
  if (auto response = service.Serve(prime); !response.ok()) {
    std::cerr << "prime failed: " << response.status() << "\n";
    std::exit(1);
  }

  Rng rng(4242);
  DeltaBuilder builder(base);
  double delta_us = 0;
  double full_us = 0;
  for (int round = 0; round < rounds; ++round) {
    for (int e = 0; e < edits_per_round; ++e) {
      const int row =
          static_cast<int>(rng.UniformIndex(builder.table().num_tuples()));
      const TupleId id = builder.table().id(row);
      const AttrId attr = static_cast<AttrId>(
          rng.UniformIndex(builder.table().schema().arity()));
      const std::string text =
          "v" + std::to_string(rng.UniformInt(0, domain - 1));
      if (!builder.Update(id, attr, text).ok()) std::exit(1);
    }
    TableDelta delta = builder.Finish();

    RepairRequest incremental = prime;
    incremental.table = &builder.table();
    incremental.delta = &delta;
    Clock::time_point start = Clock::now();
    auto spliced = service.ApplyDelta(incremental);
    std::chrono::duration<double, std::micro> elapsed = Clock::now() - start;
    if (!spliced.ok()) {
      std::cerr << "delta serve failed: " << spliced.status() << "\n";
      std::exit(1);
    }
    delta_us += elapsed.count();

    RepairRequest cold = prime;
    cold.table = &builder.table();
    cold.options.bypass_cache = true;
    start = Clock::now();
    auto replanned = service.Serve(cold);
    elapsed = Clock::now() - start;
    if (!replanned.ok()) {
      std::cerr << "cold replan failed: " << replanned.status() << "\n";
      std::exit(1);
    }
    full_us += elapsed.count();
  }
  delta_us /= rounds;
  full_us /= rounds;
  const double speedup = delta_us > 0 ? full_us / delta_us : 0;

  RepairServiceStats stats = service.stats();
  const double splice_ratio =
      stats.delta_requests > 0
          ? static_cast<double>(stats.delta_splices) /
                static_cast<double>(stats.delta_requests)
          : 0;
  const uint64_t blocks =
      stats.delta_blocks_clean + stats.delta_blocks_dirty;
  const double clean_ratio =
      blocks > 0 ? static_cast<double>(stats.delta_blocks_clean) /
                       static_cast<double>(blocks)
                 : 0;

  ReportTable table({"path", "rounds", "us/request"});
  table.AddRow({"delta (splice)", std::to_string(rounds), Num(delta_us)});
  table.AddRow({"full re-plan", std::to_string(rounds), Num(full_us)});
  table.Print();
  std::cout << "  delta-over-full speedup: " << Num(speedup)
            << "x  (splice ratio " << Num(splice_ratio)
            << ", clean-block ratio " << Num(clean_ratio) << ")\n";

  JsonReport::Get().Add("service.delta_us_per_request", delta_us, "us");
  JsonReport::Get().Add("service.delta_full_us_per_request", full_us, "us");
  JsonReport::Get().Add("service.delta_speedup", speedup, "x");
  JsonReport::Get().Add("service.delta_clean_block_ratio", clean_ratio, "");
}

/// The update-mode twin of ReportDeltaSpeedup: chained 1%-mutation batches
/// served through ApplyDelta on kUpdate requests (cell-edit recipe
/// splicing against the cached U-plan) vs a bypass-cache full update
/// re-plan of the identical mutated state. Same fixed size, same
/// both-sides-pay-identity framing.
void ReportUDeltaSpeedup() {
  const int tuples = 8192;
  const int edits_per_round = std::max(1, tuples / 100);  // 1% mutation
  const int rounds = 16;
  Population population = MakePopulation(1, tuples);
  const Table& base = population.tables[0];
  const int domain = std::max(4, tuples / 16);

  RepairService service;
  RepairRequest prime;
  prime.mode = RepairMode::kUpdate;
  prime.fds = population.parsed.fds;
  prime.table = &base;
  if (auto response = service.Serve(prime); !response.ok()) {
    std::cerr << "prime failed: " << response.status() << "\n";
    std::exit(1);
  }

  Rng rng(4242);
  DeltaBuilder builder(base);
  double delta_us = 0;
  double full_us = 0;
  for (int round = 0; round < rounds; ++round) {
    for (int e = 0; e < edits_per_round; ++e) {
      const int row =
          static_cast<int>(rng.UniformIndex(builder.table().num_tuples()));
      const TupleId id = builder.table().id(row);
      const AttrId attr = static_cast<AttrId>(
          rng.UniformIndex(builder.table().schema().arity()));
      const std::string text =
          "v" + std::to_string(rng.UniformInt(0, domain - 1));
      if (!builder.Update(id, attr, text).ok()) std::exit(1);
    }
    TableDelta delta = builder.Finish();

    RepairRequest incremental = prime;
    incremental.table = &builder.table();
    incremental.delta = &delta;
    Clock::time_point start = Clock::now();
    auto spliced = service.ApplyDelta(incremental);
    std::chrono::duration<double, std::micro> elapsed = Clock::now() - start;
    if (!spliced.ok()) {
      std::cerr << "update delta serve failed: " << spliced.status() << "\n";
      std::exit(1);
    }
    delta_us += elapsed.count();

    RepairRequest cold = prime;
    cold.table = &builder.table();
    cold.options.bypass_cache = true;
    start = Clock::now();
    auto replanned = service.Serve(cold);
    elapsed = Clock::now() - start;
    if (!replanned.ok()) {
      std::cerr << "cold update replan failed: " << replanned.status()
                << "\n";
      std::exit(1);
    }
    full_us += elapsed.count();
  }
  delta_us /= rounds;
  full_us /= rounds;
  const double speedup = delta_us > 0 ? full_us / delta_us : 0;

  RepairServiceStats stats = service.stats();
  const double splice_ratio =
      stats.udelta_requests > 0
          ? static_cast<double>(stats.udelta_splices) /
                static_cast<double>(stats.udelta_requests)
          : 0;
  const uint64_t blocks =
      stats.udelta_blocks_clean + stats.udelta_blocks_dirty;
  const double clean_ratio =
      blocks > 0 ? static_cast<double>(stats.udelta_blocks_clean) /
                       static_cast<double>(blocks)
                 : 0;

  ReportTable table({"path", "rounds", "us/request"});
  table.AddRow({"udelta (splice)", std::to_string(rounds), Num(delta_us)});
  table.AddRow({"full update re-plan", std::to_string(rounds), Num(full_us)});
  table.Print();
  std::cout << "  udelta-over-full speedup: " << Num(speedup)
            << "x  (splice ratio " << Num(splice_ratio)
            << ", clean-block ratio " << Num(clean_ratio) << ")\n";

  JsonReport::Get().Add("service.udelta_us_per_request", delta_us, "us");
  JsonReport::Get().Add("service.udelta_full_us_per_request", full_us, "us");
  JsonReport::Get().Add("service.udelta_speedup", speedup, "x");
  JsonReport::Get().Add("service.udelta_clean_block_ratio", clean_ratio, "");
}

/// What one cache hit costs against the planner it fronts. Fixed size (no
/// smoke cap), like the delta sections: the ratio compares two O(n) paths
/// at the n=8192 the serving target names. A 1-thread engine and a
/// sequential planner keep both sides on one core. The hit and the planner
/// are timed in alternation, best of several rounds, so host drift hits
/// both alike.
void ReportHitCost() {
  const int tuples = 8192;
  Population population = MakePopulation(1, tuples);
  const Table& table = population.tables[0];
  const double cells =
      static_cast<double>(tuples) * table.schema().arity();
  auto elapsed_us = [](Clock::time_point start) {
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
  };

  double hash_us = 0;
  for (int rep = 0; rep < 20; ++rep) {
    const Clock::time_point start = Clock::now();
    benchmark::DoNotOptimize(TableContentHash(table));
    const double us = elapsed_us(start);
    if (rep == 0 || us < hash_us) hash_us = us;
  }
  const double hash_ns_per_cell = 1000.0 * hash_us / cells;

  RepairServiceOptions options;
  options.engine.threads = 1;
  RepairService service(options);
  RepairRequest request;
  request.mode = RepairMode::kSubset;
  request.fds = population.parsed.fds;
  request.table = &table;
  if (auto response = service.Serve(request); !response.ok()) {
    std::cerr << "prime failed: " << response.status() << "\n";
    std::exit(1);
  }
  const FdSet cover = population.parsed.fds.CanonicalCover();
  double hit_us = 0;
  double plan_us = 0;
  for (int round = 0; round < 7; ++round) {
    Clock::time_point start = Clock::now();
    auto hit = service.Serve(request);
    const double round_hit_us = elapsed_us(start);
    if (!hit.ok() || !hit->cache_hit) {
      std::cerr << "warm request did not hit the cache\n";
      std::exit(1);
    }
    start = Clock::now();
    auto planned = ComputeSRepair(cover, table, SRepairOptions{});
    const double round_plan_us = elapsed_us(start);
    if (!planned.ok()) {
      std::cerr << "planner failed: " << planned.status() << "\n";
      std::exit(1);
    }
    if (round == 0 || round_hit_us < hit_us) hit_us = round_hit_us;
    if (round == 0 || round_plan_us < plan_us) plan_us = round_plan_us;
  }
  const double hit_over_plan = plan_us > 0 ? hit_us / plan_us : 0;

  ReportTable report({"n", "hash ns/cell", "warm hit (us)", "planner (us)",
                      "hit / planner"});
  report.AddRow({std::to_string(tuples), Num(hash_ns_per_cell), Num(hit_us),
                 Num(plan_us), Num(hit_over_plan)});
  report.Print();

  JsonReport::Get().Add("service.content_hash_ns_per_cell", hash_ns_per_cell,
                        "ns");
  JsonReport::Get().Add("service.warm_hit_us", hit_us, "us");
  JsonReport::Get().Add("service.plan_only_us", plan_us, "us");
  JsonReport::Get().Add("service.warm_hit_over_plan", hit_over_plan, "x");
}

void Report() {
  benchreport::Banner("service", "RepairService cache: cold vs warm");
  ReportColdVsWarm();
  std::cout << "\n";
  ReportHitRatioSweep();
  std::cout << "\n";
  ReportDeltaSpeedup();
  std::cout << "\n";
  ReportUDeltaSpeedup();
  std::cout << "\n";
  ReportHitCost();
}

void BM_ServeCold(benchmark::State& state) {
  Population population = MakePopulation(1, TupleCount());
  RepairService service;
  RepairRequest request;
  request.mode = RepairMode::kSubset;
  request.fds = population.parsed.fds;
  request.table = &population.tables[0];
  request.options.bypass_cache = true;
  for (auto _ : state) {
    auto response = service.Serve(request);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServeCold)->Unit(benchmark::kMicrosecond);

void BM_ServeWarm(benchmark::State& state) {
  Population population = MakePopulation(1, TupleCount());
  RepairService service;
  RepairRequest request;
  request.mode = RepairMode::kSubset;
  request.fds = population.parsed.fds;
  request.table = &population.tables[0];
  (void)service.Serve(request);  // prime the cache
  for (auto _ : state) {
    auto response = service.Serve(request);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServeWarm)->Unit(benchmark::kMicrosecond);

}  // namespace

FDR_BENCH_MAIN(Report)
