// perfbench: replays one named workload through RepairService from a single
// process and reports what a user of the service sees (untraced run) or
// what each layer costs (traced run).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Both modes set up at least five times and for at least two seconds (the
// median is setup_s), then:
// --trace 0: run the closed loop for <s> seconds of timed requests, check
//   every response, report the end-to-end metrics.
// --trace 1: run the loop untraced for <s>/2 seconds, then the same
//   requests traced on a fresh service (the throughput difference is the
//   tracing overhead), then the layer probes; write every span to
//   traces/<name>-seed<n>.json under the working directory and report the
//   per-layer metrics.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics (name -> {value, unit}). A summary goes to stderr. Exit status: 0
// when every response was right, 1 on a wrong answer or a service error, 2
// on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "loop.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Set-up runs at least this many times and for at least this many
/// seconds in total, so a quick set-up is timed over many repetitions.
constexpr int kMinSetupRuns = 5;
constexpr double kMinSetupSeconds = 2;
/// The untraced loop serves at least this many requests, so at least ten
/// lie beyond latency_p90_ms.
constexpr int kMinRequests = 100;
/// The traced loop's service counters are read after exactly this many
/// requests, so on single-client workloads they repeat for a given seed.
constexpr int kCountWindow = 40;
/// Fewer samples than this and an outcome's median is not reported.
constexpr int kMinOutcomeSamples = 20;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\nusage: perfbench --workload <";
  for (size_t i = 0; i < WorkloadNames().size(); ++i) {
    std::cerr << (i ? "|" : "") << WorkloadNames()[i];
  }
  std::cerr << "> --seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
  return args;
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::max<size_t>(rank, 1) - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // Linux reports KiB
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      std::cerr << "perfbench: metric " << name << " is not finite\n";
      std::exit(1);
    }
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::ostringstream out;
    out.precision(10);
    out << "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": "
          << e.value << ", \"unit\": \""
          << e.unit << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::vector<double> Latencies(const LoopResult& loop,
                              std::optional<Outcome> outcome = std::nullopt) {
  std::vector<double> latencies;
  for (const RequestRecord& record : loop.records) {
    if (!outcome || (!record.failed && record.outcome == *outcome)) {
      latencies.push_back(record.latency_ms);
    }
  }
  return latencies;
}

/// Per-outcome medians (hit / miss / delta), for the stderr summary.
void SummarizeOutcomes(const LoopResult& loop) {
  const std::pair<Outcome, const char*> outcomes[] = {
      {Outcome::kHit, "hit"}, {Outcome::kMiss, "miss"}, {Outcome::kDelta, "delta"}};
  for (const auto& [outcome, name] : outcomes) {
    std::vector<double> latencies = Latencies(loop, outcome);
    std::cerr << "  " << name << ": " << latencies.size() << " requests";
    if (static_cast<int>(latencies.size()) >= kMinOutcomeSamples) {
      std::cerr << ", p50 " << Percentile(latencies, 0.5) << " ms";
    }
    std::cerr << "\n";
  }
}

void EndToEndMetrics(const LoopResult& loop, double setup_s,
                     Metrics* metrics) {
  std::vector<double> all = Latencies(loop);
  std::vector<double> misses = Latencies(loop, Outcome::kMiss);
  if (static_cast<int>(misses.size()) < kMinOutcomeSamples) {
    std::cerr << "perfbench: only " << misses.size()
              << " planner misses; miss_p50_ms is not representative\n";
  }
  double ratio_sum = 0;
  int answered = 0;
  int optimal = 0;
  for (const RequestRecord& record : loop.records) {
    if (record.failed) continue;
    ++answered;
    ratio_sum += record.achieved_ratio;
    optimal += record.optimal ? 1 : 0;
  }
  metrics->Add("setup_s", setup_s, "s");
  metrics->Add("throughput_rps", loop.throughput_rps(), "req/s");
  metrics->Add("latency_p50_ms", Percentile(all, 0.5), "ms");
  metrics->Add("latency_p90_ms", Percentile(all, 0.9), "ms");
  metrics->Add("miss_p50_ms", Percentile(misses, 0.5), "ms");
  metrics->Add("peak_rss_mb", PeakRssMb(), "MiB");
  metrics->Add("certified_ratio_mean", answered ? ratio_sum / answered : 0,
               "ratio");
  metrics->Add("optimal_frac",
               answered ? static_cast<double>(optimal) / answered : 0,
               "ratio");
}

double Ratio(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0 : static_cast<double>(part) / whole;
}

void ServiceCounters(const fdrepair::RepairServiceStats& s, Metrics* metrics) {
  metrics->Add("service.hits", s.hits, "count");
  metrics->Add("service.misses", s.misses, "count");
  metrics->Add("service.hit_ratio", Ratio(s.hits, s.hits + s.misses), "ratio");
  metrics->Add("service.evictions", s.evictions, "count");
  metrics->Add("service.single_flight_waits", s.single_flight_waits, "count");
  metrics->Add("service.rejected", s.rejected_deadline + s.rejected_unavailable,
               "count");
  metrics->Add("service.entries", s.entries, "count");
  metrics->Add("service.splice_ratio.subset",
               Ratio(s.delta_splices, s.delta_requests), "ratio");
  metrics->Add("service.splice_ratio.update",
               Ratio(s.udelta_splices, s.udelta_requests), "ratio");
  metrics->Add("service.clean_block_ratio.subset",
               Ratio(s.delta_blocks_clean,
                     s.delta_blocks_clean + s.delta_blocks_dirty),
               "ratio");
  metrics->Add("service.clean_block_ratio.update",
               Ratio(s.udelta_blocks_clean,
                     s.udelta_blocks_clean + s.udelta_blocks_dirty),
               "ratio");
  metrics->Add("service.blocks_clean",
               s.delta_blocks_clean + s.udelta_blocks_clean, "count");
  metrics->Add("service.blocks_dirty",
               s.delta_blocks_dirty + s.udelta_blocks_dirty, "count");
}

/// Unit of each probe metric, by name suffix.
std::string ProbeUnit(const std::string& name) {
  auto ends = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends("_ns_per_cell") || ends("_ns_per_tuple")) return "ns";
  if (ends("_us_per_tuple") || ends("_us")) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_edges") || ends("_blocks") || ends("_tuples")) return "count";
  return "ratio";
}

struct Setup {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<fdrepair::RepairService> service;
};

Setup SetUp(const Args& args) {
  Setup setup;
  setup.workload = MakeWorkload(args.workload);
  setup.workload->Generate(args.seed);
  setup.service = std::make_unique<fdrepair::RepairService>(
      setup.workload->service_options());
  setup.workload->Start(setup.service.get());
  return setup;
}

int Run(const Args& args) {
  if (MakeWorkload(args.workload) == nullptr) {
    Usage("unknown workload " + args.workload);
  }
  // Set up several times and keep the last; setup_s is the median.
  std::vector<double> setup_seconds;
  double setup_total = 0;
  Setup setup;
  while (static_cast<int>(setup_seconds.size()) < kMinSetupRuns ||
         setup_total < kMinSetupSeconds) {
    setup = Setup();  // release the previous set-up first
    const Clock::time_point start = Clock::now();
    setup = SetUp(args);
    setup_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    setup_total += setup_seconds.back();
  }
  const double setup_s = Percentile(setup_seconds, 0.5);
  std::cerr << "perfbench: " << setup_seconds.size() << " set-ups, "
            << *std::min_element(setup_seconds.begin(), setup_seconds.end())
            << " s to "
            << *std::max_element(setup_seconds.begin(), setup_seconds.end())
            << " s\n";
  Workload& workload = *setup.workload;

  Metrics metrics;
  std::vector<RequestRecord> attempted;
  if (args.trace == 0) {
    LoopLimits limits;
    limits.seconds = args.seconds;
    limits.min_requests = kMinRequests;
    LoopResult loop = RunLoop(&workload, setup.service.get(), limits);
    workload.FinishChecks();
    attempted = loop.records;
    EndToEndMetrics(loop, setup_s, &metrics);
    std::cerr << "perfbench " << args.workload << " seed " << args.seed
              << ": " << loop.records.size() << " requests, "
              << loop.throughput_rps() << " req/s\n";
    SummarizeOutcomes(loop);
  } else {
    // The same log prefix twice, untraced then traced, each on a fresh
    // service: their throughput difference is the tracing overhead.
    LoopLimits limits;
    limits.seconds = args.seconds / 2;
    limits.min_requests = kCountWindow;
    LoopResult untraced = RunLoop(&workload, setup.service.get(), limits);
    setup.service = std::make_unique<fdrepair::RepairService>(
        workload.service_options());
    workload.Start(setup.service.get());
    Tracer::Enable(true);
    limits.seconds = 0;
    limits.min_requests = static_cast<int>(untraced.records.size());
    limits.max_requests = limits.min_requests;
    // Counters after a fixed request count repeat exactly for a given seed
    // when one client sends; with several, the whole loop is read.
    limits.snapshot_at = workload.clients() == 1 ? kCountWindow : 0;
    LoopResult traced = RunLoop(&workload, setup.service.get(), limits);
    workload.FinishChecks();
    attempted = untraced.records;
    attempted.insert(attempted.end(), traced.records.begin(),
                     traced.records.end());
    std::map<std::string, double> layers =
        RunLayerProbes(workload.ProbeInputs(),
                       workload.service_options().engine.threads);
    Tracer::Enable(false);
    const std::vector<double> check_ms = workload.verdicts().check_ms();
    layers["verify.check_ms"] = Percentile(check_ms, 0.5);
    layers["trace.overhead_frac"] =
        (untraced.throughput_rps() - traced.throughput_rps()) /
        untraced.throughput_rps();
    for (const auto& [name, value] : layers) {
      metrics.Add(name, value, ProbeUnit(name));
    }
    ServiceCounters(traced.snapshot.value_or(setup.service->stats()),
                    &metrics);
    std::cerr << "perfbench " << args.workload << " seed " << args.seed
              << " (traced): untraced " << untraced.throughput_rps()
              << " req/s, traced " << traced.throughput_rps() << " req/s\n";
    SummarizeOutcomes(traced);
    const std::filesystem::path trace_path =
        std::filesystem::path("traces") /
        (args.workload + "-seed" + std::to_string(args.seed) + ".json");
    std::error_code error;
    std::filesystem::create_directories(trace_path.parent_path(), error);
    if (!Tracer::WriteJson(trace_path.string())) {
      std::cerr << "perfbench: cannot write " << trace_path << "\n";
      return 1;
    }
    std::cerr << "  spans written to " << trace_path << "\n";
  }

  const int wrong = workload.verdicts().wrong();
  const int errors = workload.verdicts().errors();
  int failed = 0;
  for (const RequestRecord& record : attempted) failed += record.failed ? 1 : 0;
  // Checks deferred past the loop find wrong answers no record carries.
  failed = std::max(failed, wrong + errors);
  for (const std::string& reason : workload.verdicts().reasons()) {
    std::cerr << "  " << reason << "\n";
  }
  const bool correct = wrong == 0 && errors == 0;
  std::cerr << "  wrong answers " << wrong << ", errors " << errors
            << ", failed_frac "
            << (attempted.empty() ? 0.0
                                  : static_cast<double>(failed) / attempted.size())
            << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted.size()
            << ", \"failed\": " << failed << ", \"metrics\": " << metrics.Json()
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
