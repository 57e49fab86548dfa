#include "loop.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "trace.h"

namespace perfbench {

void Verdicts::Wrong(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  ++wrong_;
  if (reasons_.size() < 20) reasons_.push_back("wrong answer: " + reason);
}

void Verdicts::Error(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  ++errors_;
  if (reasons_.size() < 20) reasons_.push_back("error: " + reason);
}

void Verdicts::CheckTime(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  check_ms_.push_back(ms);
}

int Verdicts::wrong() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wrong_;
}

int Verdicts::errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_;
}

std::vector<double> Verdicts::check_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return check_ms_;
}

std::vector<std::string> Verdicts::reasons() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reasons_;
}

namespace {
/// Checks per batch, and the threads beside the client's that run them.
constexpr size_t kCheckBatch = 16;
constexpr int kCheckThreads = 3;
}  // namespace

DeferredChecks::DeferredChecks() : pool_(kCheckThreads) {}

void DeferredChecks::Add(int64_t request, std::function<void()> check) {
  queue_.emplace_back(request, std::move(check));
  if (queue_.size() >= kCheckBatch) Flush();
}

void DeferredChecks::Flush() {
  // The client's wait for the other threads' checks lands in this span.
  ScopedSpan batch("verify.batch");
  pool_.ParallelFor(static_cast<int>(queue_.size()), [&](int i) {
    ScopedSpan span("verify.deferred", queue_[i].first);
    queue_[i].second();
  });
  queue_.clear();
}

fdrepair::RepairServiceOptions Workload::service_options() const {
  fdrepair::RepairServiceOptions options;
  // A single client's request runs on the client's own thread: a second
  // engine thread made these workloads no faster, and a request waiting on
  // two shared cores swung more between runs. office-repeat sets its own.
  options.engine.threads = 1;
  // Small enough that every workload reaches its steady state (and its
  // plan memory its plateau) within a run; mutate-mixed needs 8 live
  // states, office-repeat sets its own.
  options.cache_capacity = 16;
  return options;
}

double LoopResult::throughput_rps() const {
  if (busy_seconds <= 0) return 0;
  return static_cast<double>(records.size()) * clients / busy_seconds;
}

LoopResult RunLoop(Workload* workload, fdrepair::RepairService* service,
                   const LoopLimits& limits) {
  // A run must end well inside its time limit even when the program got
  // much slower: past this much wall time the request minimum is waived.
  constexpr double kWallGuardSeconds = 90;
  const int clients = workload->clients();
  const int64_t start_ns = NowNs();
  std::atomic<int64_t> next_request{0};
  std::atomic<int64_t> completed{0};
  std::vector<std::vector<RequestRecord>> records(clients);
  std::vector<double> busy(clients, 0);
  std::mutex snapshot_mu;
  LoopResult result;
  result.clients = clients;

  auto client = [&](int c) {
    while (true) {
      const bool timed_enough = busy[c] >= limits.seconds;
      const bool wall_guard = (NowNs() - start_ns) / 1e9 > kWallGuardSeconds;
      if (timed_enough &&
          (completed.load() >= limits.min_requests || wall_guard)) {
        break;
      }
      const int64_t request = next_request.fetch_add(1);
      if (limits.max_requests > 0 && request >= limits.max_requests) break;
      RequestRecord record = workload->Step(c, request, service);
      busy[c] += record.latency_ms / 1e3;
      records[c].push_back(record);
      if (completed.fetch_add(1) + 1 == limits.snapshot_at) {
        std::lock_guard<std::mutex> lock(snapshot_mu);
        result.snapshot = service->stats();
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(client, c);
  client(0);
  for (std::thread& thread : threads) thread.join();

  for (int c = 0; c < clients; ++c) {
    result.records.insert(result.records.end(), records[c].begin(),
                          records[c].end());
    result.busy_seconds += busy[c];
  }
  return result;
}

}  // namespace perfbench
