// The closed loop: each client thread sends its next request only after the
// previous reply arrived (and was checked). A Workload supplies the inputs
// and the per-request step; RunLoop drives the clients and collects one
// record per request.
#ifndef PERFBENCH_LOOP_H_
#define PERFBENCH_LOOP_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "engine/thread_pool.h"
#include "probes.h"
#include "service/repair_service.h"

namespace perfbench {

enum class Outcome {
  /// Served from the cache (including single-flight followers).
  kHit,
  /// Ran the planner on a content-keyed request.
  kMiss,
  /// An ApplyDelta request (spliced or re-planned).
  kDelta,
};

struct RequestRecord {
  /// The timed part of the request: the service call, plus building the
  /// delta on workloads that write.
  double latency_ms = 0;
  Outcome outcome = Outcome::kMiss;
  /// Error or refusal from the service, or a wrong answer found before the
  /// next request (deferred checks count theirs in Verdicts only).
  bool failed = false;
  bool optimal = false;
  double achieved_ratio = 1;
};

/// Wrong answers and the verify layer's timings, shared by all clients.
class Verdicts {
 public:
  void Wrong(const std::string& reason);
  void Error(const std::string& reason);
  void CheckTime(double ms);
  int wrong() const;
  int errors() const;
  std::vector<double> check_ms() const;
  std::vector<std::string> reasons() const;

 private:
  mutable std::mutex mu_;
  int wrong_ = 0;
  int errors_ = 0;
  std::vector<double> check_ms_;
  std::vector<std::string> reasons_;
};

/// Checks that a single-client workload hands off instead of running each
/// one right after its request: they run a batch at a time, spread over the
/// machine's cores, between two requests. No check ever overlaps a timed
/// request, and a run spends far less wall time outside the timed part, so
/// a run's requests are sent closer together. Not for concurrent clients.
class DeferredChecks {
 public:
  DeferredChecks();
  /// Queues the checks of request `request` (its spans carry that id); runs
  /// the whole batch once it is full. `check` must own what it reads.
  void Add(int64_t request, std::function<void()> check);
  /// Runs every queued check.
  void Flush();

 private:
  std::vector<std::pair<int64_t, std::function<void()>>> queue_;
  fdrepair::ThreadPool pool_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int clients() const { return 1; }
  virtual fdrepair::RepairServiceOptions service_options() const;
  /// Builds the workload's inputs (tables, FD sets, request log) from the
  /// seed. Deterministic: the same seed gives the same inputs.
  virtual void Generate(uint64_t seed) = 0;
  /// Resets the per-loop state (a loop always replays the request log from
  /// its start) and warms `service` up. Untimed, counted in set-up.
  virtual void Start(fdrepair::RepairService* service) = 0;
  /// One closed-loop request: prepare it (untimed), send it (timed), check
  /// the reply (untimed). `request` numbers the loop's requests from 0.
  virtual RequestRecord Step(int client, int64_t request,
                             fdrepair::RepairService* service) = 0;
  /// Checks that Step deferred until after the loop.
  virtual void FinishChecks() {}
  /// Inputs for the layer probes, drawn from the same generators. Only the
  /// traced run calls this, so tables built just for the probes are built
  /// here rather than in Generate and stay out of set-up time.
  virtual std::vector<ProbeInput> ProbeInputs() = 0;

  Verdicts& verdicts() { return verdicts_; }

 protected:
  Verdicts verdicts_;
};

struct LoopResult {
  std::vector<RequestRecord> records;
  /// Sum of all clients' timed seconds.
  double busy_seconds = 0;
  int clients = 1;
  /// service.stats() right after the `snapshot_at`-th request completed.
  std::optional<fdrepair::RepairServiceStats> snapshot;

  /// Requests per second of timed loop per client, times clients.
  double throughput_rps() const;
};

struct LoopLimits {
  /// Each client stops once its timed seconds reach this...
  double seconds = 0;
  /// ...and at least this many requests completed in total (waived past a
  /// wall-clock guard, so a much slower program still ends in time).
  int min_requests = 1;
  /// No more requests than this are sent in total (0: unlimited).
  int64_t max_requests = 0;
  /// Snapshot service.stats() when this many requests completed (0: never).
  int snapshot_at = 0;
};

LoopResult RunLoop(Workload* workload, fdrepair::RepairService* service,
                   const LoopLimits& limits);

}  // namespace perfbench

#endif  // PERFBENCH_LOOP_H_
