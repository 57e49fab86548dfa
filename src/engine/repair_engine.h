// RepairEngine: the batch serving surface of the repair stack.
//
// A production deployment repairs many (∆, T) instances at once — one per
// tenant, shard, or request. The engine owns one work-stealing ThreadPool
// and schedules a whole batch across it at two levels: jobs run
// concurrently with each other, and each tractable job's OptSRepair
// recursion fans its independent blocks out to the same pool (Algorithm 1's
// σ_{A=a}T / σ_{X1=a1,X2=a2}T decomposition — see block_partitioner.h).
//
// Guarantees:
//   - deterministic results: results[i] always answers jobs[i], and every
//     repair is bit-identical to what the sequential planner produces,
//     regardless of the thread count;
//   - per-job deadlines: an expired job reports kDeadlineExceeded and
//     never leaks tasks — RepairBatch joins all work before returning.
//     The deadline is cooperative on every route: checked at admission, at
//     every recursion node on the OptSRepair route, and during node
//     expansion inside the hard-side search backends, which degrade to
//     their incumbent (kAuto) or kDeadlineExceeded (kExactOnly) instead of
//     overshooting (see planner.h and srepair/solver_backend.h);
//   - no cross-job interference: jobs read their own tables only; blocks
//     within a job share the parent table read-only (see storage/table.h).

#ifndef FDREPAIR_ENGINE_REPAIR_ENGINE_H_
#define FDREPAIR_ENGINE_REPAIR_ENGINE_H_

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "engine/thread_pool.h"
#include "srepair/planner.h"

namespace fdrepair {

/// One subset-repair request: repair `*table` under `fds`.
struct RepairJob {
  FdSet fds;
  /// Borrowed; must outlive the RepairBatch call.
  const Table* table = nullptr;
  /// Route selection and guards, as for ComputeSRepair. The exec field is
  /// overwritten by the engine (pool + deadline).
  SRepairOptions options;
  /// Time budget from the moment RepairBatch is called. Unset: no limit
  /// (beyond EngineOptions::default_deadline).
  std::optional<std::chrono::milliseconds> deadline;
};

struct EngineOptions {
  /// Worker threads. 0 picks std::thread::hardware_concurrency(); 1 runs
  /// everything on the calling thread (the bit-identical baseline).
  int threads = 0;
  /// Fallback budget for jobs that set no deadline of their own.
  std::optional<std::chrono::milliseconds> default_deadline;
  /// Passed through to OptSRepairExec::parallel_cutoff.
  int parallel_cutoff = 2048;
};

class RepairEngine {
 public:
  explicit RepairEngine(const EngineOptions& options = {});
  ~RepairEngine();

  RepairEngine(const RepairEngine&) = delete;
  RepairEngine& operator=(const RepairEngine&) = delete;

  int threads() const;

  /// Repairs every job, in parallel across `threads()` workers. Returns
  /// one result per job, in job order. A job whose deadline expires yields
  /// kDeadlineExceeded; other jobs are unaffected. All scheduled work is
  /// joined before returning.
  std::vector<StatusOr<SRepairResult>> RepairBatch(
      const std::vector<RepairJob>& jobs);

  /// Single-job convenience (still honors deadlines and block fan-out).
  StatusOr<SRepairResult> Repair(const RepairJob& job);

  /// The engine's pool, for callers that want to run their own work on it.
  ThreadPool* pool() { return pool_.get(); }

 private:
  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace fdrepair

#endif  // FDREPAIR_ENGINE_REPAIR_ENGINE_H_
