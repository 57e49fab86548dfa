#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "gate.h"
#include "trace.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace perfbench {
namespace {

using namespace fdrepair;
using Clock = std::chrono::steady_clock;

constexpr int kRows = 8192;

/// Independent, reproducible sub-seeds: one stream per purpose, one value
/// per index (SplitMix64 finalizer over the combined words).
uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               index * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Sends one request and times it.
StatusOr<RepairResponse> TimedServe(RepairService* service,
                                    const RepairRequest& request,
                                    double* latency_ms) {
  const bool delta = request.delta != nullptr;
  ScopedSpan span(delta ? "service.apply_delta" : "service.serve");
  const Clock::time_point start = Clock::now();
  StatusOr<RepairResponse> response =
      delta ? service->ApplyDelta(request) : service->Serve(request);
  *latency_ms +=
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  return response;
}

RequestRecord Record(double latency_ms, const RepairResponse& response,
                     bool delta) {
  RequestRecord record;
  record.latency_ms = latency_ms;
  record.outcome = response.cache_hit ? Outcome::kHit
                   : delta            ? Outcome::kDelta
                                      : Outcome::kMiss;
  record.optimal = response.optimal;
  record.achieved_ratio = response.achieved_ratio;
  return record;
}

RequestRecord Failed(double latency_ms) {
  RequestRecord record;
  record.latency_ms = latency_ms;
  record.failed = true;
  return record;
}

/// The canonical cover the service will compute for these FDs.
FdSet CoverOf(const FdSet& fds, const std::vector<double>& soft_weights) {
  if (soft_weights.empty()) return fds.CanonicalCover();
  auto weighted = fds.WithWeights(soft_weights);
  FDR_CHECK(weighted.ok());
  return weighted->CanonicalCover();
}

/// A request's table and the service's response, kept for a deferred check.
struct Answered {
  Table table;
  RepairResponse response;
};

std::shared_ptr<const Answered> Keep(Table table, RepairResponse response) {
  return std::make_shared<const Answered>(
      Answered{std::move(table), std::move(response)});
}

/// Cheap checks plus the verify layer: the gate for a response to a table
/// the service had not seen before.
bool CheckFirstResponse(Verdicts* verdicts, RepairMode mode,
                        const FdSet& cover, const Table& table,
                        const RepairResponse& response) {
  ScopedSpan span("verify.gate");
  std::string failure = CheckConsistent(mode, cover, table, response);
  const bool soft_core = mode == RepairMode::kSoft && cover.HasSoftFds();
  if (failure.empty() && !soft_core) {
    ScopedSpan check("verify.check");
    double check_ms = 0;
    failure = CheckWithVerifier(mode, cover, table, response, &check_ms);
    verdicts->CheckTime(check_ms);
  }
  if (!failure.empty()) verdicts->Wrong(failure);
  return failure.empty();
}

// --- office-repeat -------------------------------------------------------

class OfficeRepeat : public Workload {
 public:
  int clients() const override { return 2; }

  RepairServiceOptions service_options() const override {
    RepairServiceOptions options = Workload::service_options();
    options.engine.threads = 2;
    options.cache_capacity = kCacheCapacity;
    return options;
  }

  void Generate(uint64_t seed) override {
    cover_ = parsed_.fds.CanonicalCover();
    for (int i = 0; i < kPool; ++i) {
      tables_.push_back(ScalingFamilyTable(parsed_, kRows, SubSeed(seed, 1, i)));
    }
    // Popularity ranks map to instances through a seeded permutation, so
    // which table is hot changes with the seed.
    std::vector<int> by_rank(kPool);
    for (int i = 0; i < kPool; ++i) by_rank[i] = i;
    Rng rng(SubSeed(seed, 2, 0));
    rng.Shuffle(&by_rank);
    std::vector<double> cdf;
    double total = 0;
    for (int rank = 0; rank < kPool; ++rank) {
      total += 1.0 / std::pow(rank + 1, kZipfExponent);
      cdf.push_back(total);
    }
    log_.clear();
    while (static_cast<int>(log_.size()) < kLogLength) {
      const double u = rng.UniformDouble() * total;
      const int rank = std::min(
          static_cast<int>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                           cdf.begin()),
          kPool - 1);
      log_.push_back(by_rank[rank]);
      // Clients retry slow requests: a draw from the tail the cache cannot
      // hold is sometimes sent again right behind itself, which is where
      // single-flight waits come from.
      if (rank >= kCacheCapacity && rng.Bernoulli(kRetryShare)) {
        log_.push_back(by_rank[rank]);
      }
    }
    log_.resize(kLogLength);
    hot_ = {by_rank[0], by_rank[1], by_rank[2]};
    first_.assign(kPool, std::nullopt);
    fingerprints_.assign(kPool, 0);
  }

  void Start(RepairService* service) override {
    for (int r = 0; r < kWarmup; ++r) {
      const int instance = log_[r];
      auto response = service->Serve(RequestFor(instance));
      if (!response.ok()) {
        verdicts_.Error(response.status().ToString());
        continue;
      }
      Remember(instance, std::move(response).value());
    }
  }

  RequestRecord Step(int, int64_t request, RepairService* service) override {
    ScopedSpan span("request", request);
    const int instance = log_[(kWarmup + request) % kLogLength];
    double latency_ms = 0;
    auto response = TimedServe(service, RequestFor(instance), &latency_ms);
    if (!response.ok()) {
      verdicts_.Error(response.status().ToString());
      return Failed(latency_ms);
    }
    RequestRecord record = Record(latency_ms, *response, false);
    ScopedSpan gate("verify.gate");
    record.failed = !Remember(instance, std::move(response).value());
    return record;
  }

  /// The first response of each instance gets the full gate here, after the
  /// loop; during it, every later response must match its fingerprint.
  void FinishChecks() override {
    for (int instance = 0; instance < kPool; ++instance) {
      if (first_[instance] && !first_checked_[instance]) {
        CheckFirstResponse(&verdicts_, RepairMode::kSubset, cover_,
                           tables_[instance], *first_[instance]);
        first_checked_[instance] = true;
      }
    }
  }

  std::vector<ProbeInput> ProbeInputs() override {
    std::vector<ProbeInput> inputs;
    for (int instance : hot_) {
      ProbeInput input;
      input.fds = parsed_.fds;
      input.table = &tables_[instance];
      inputs.push_back(input);
    }
    return inputs;
  }

 private:
  static constexpr int kPool = 96;
  static constexpr int kCacheCapacity = 32;
  static constexpr double kZipfExponent = 1.3;
  static constexpr double kRetryShare = 0.3;
  static constexpr int kLogLength = 1 << 16;
  static constexpr int kWarmup = 256;

  RepairRequest RequestFor(int instance) const {
    RepairRequest request;
    request.fds = parsed_.fds;
    request.table = &tables_[instance];
    return request;
  }

  /// Keeps the first response per instance; later ones must be identical.
  bool Remember(int instance, RepairResponse response) {
    const uint64_t fingerprint = Fingerprint(response);
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_[instance]) {
      first_[instance] = std::move(response);
      fingerprints_[instance] = fingerprint;
      return true;
    }
    if (fingerprint != fingerprints_[instance]) {
      verdicts_.Wrong("instance " + std::to_string(instance) +
                      ": response differs from its first response (" +
                      (response.cache_hit ? "cache hit" : "re-plan") + ")");
      return false;
    }
    return true;
  }

  ParsedFdSet parsed_ = OfficeFds();
  FdSet cover_;
  std::vector<Table> tables_;
  std::vector<int> log_;
  std::vector<int> hot_;
  std::mutex mu_;
  std::vector<std::optional<RepairResponse>> first_;
  std::vector<uint64_t> fingerprints_;
  std::vector<char> first_checked_ = std::vector<char>(kPool, 0);
};

// --- ssn-cold ------------------------------------------------------------

class SsnCold : public Workload {
 public:
  void Generate(uint64_t seed) override {
    seed_ = seed;
    cover_ = parsed_.fds.CanonicalCover();
  }

  void Start(RepairService* service) override {
    for (int i = 0; i < kWarmup; ++i) {
      Table warm = ScalingFamilyTable(parsed_, kSmall, SubSeed(seed_, 5, i));
      RepairRequest request;
      request.fds = parsed_.fds;
      request.table = &warm;
      auto response = service->Serve(request);
      if (!response.ok()) {
        verdicts_.Error(response.status().ToString());
      } else if (std::string failure = CheckConsistent(
                     RepairMode::kSubset, cover_, warm, *response);
                 !failure.empty()) {
        verdicts_.Wrong(failure);
      }
    }
  }

  RequestRecord Step(int, int64_t request, RepairService* service) override {
    ScopedSpan span("request", request);
    std::optional<Table> table;
    {
      ScopedSpan prepare("client.prepare");
      table = ScalingFamilyTable(parsed_, SizeOf(request),
                                 SubSeed(seed_, 6, request));
    }
    RepairRequest repair_request;
    repair_request.fds = parsed_.fds;
    repair_request.table = &*table;
    double latency_ms = 0;
    auto response = TimedServe(service, repair_request, &latency_ms);
    if (!response.ok()) {
      verdicts_.Error(response.status().ToString());
      return Failed(latency_ms);
    }
    RequestRecord record = Record(latency_ms, *response, false);
    auto answered = Keep(std::move(*table), std::move(response).value());
    checks_.Add(request, [this, answered] {
      CheckFirstResponse(&verdicts_, RepairMode::kSubset, cover_,
                         answered->table, answered->response);
    });
    return record;
  }

  void FinishChecks() override { checks_.Flush(); }

  /// Two small tables and a large one, as in the request mix.
  std::vector<ProbeInput> ProbeInputs() override {
    probe_tables_.clear();
    for (int rows : {kSmall, kSmall, kRows}) {
      probe_tables_.push_back(ScalingFamilyTable(
          parsed_, rows, SubSeed(seed_, 4, probe_tables_.size())));
    }
    std::vector<ProbeInput> inputs;
    for (const Table& table : probe_tables_) {
      ProbeInput input;
      input.fds = parsed_.fds;
      input.table = &table;
      inputs.push_back(input);
    }
    return inputs;
  }

 private:
  static constexpr int kSmall = 4096;
  static constexpr int kWarmup = 3;

  /// Every run of ten requests holds exactly three n=8192 tables, in a
  /// seeded order, so the 70/30 mix holds on any prefix of the log.
  int SizeOf(int64_t request) const {
    std::vector<int> sizes(10, kSmall);
    std::fill(sizes.begin(), sizes.begin() + 3, kRows);
    Rng rng(SubSeed(seed_, 7, static_cast<uint64_t>(request / 10)));
    rng.Shuffle(&sizes);
    return sizes[request % 10];
  }

  ParsedFdSet parsed_ = Example31Ssn();
  FdSet cover_;
  uint64_t seed_ = 0;
  std::vector<Table> probe_tables_;
  DeferredChecks checks_;
};

// --- mutate-mixed --------------------------------------------------------

class MutateMixed : public Workload {
 public:
  void Generate(uint64_t seed) override {
    seed_ = seed;
    cover_ = parsed_.fds.CanonicalCover();
  }

  void Start(RepairService* service) override {
    slots_.clear();
    slots_.resize(kSlots);
    next_instance_ = 0;
    for (int i = 0; i < 2; ++i) {
      Table warm = ScalingFamilyTable(parsed_, kRows, SubSeed(seed_, 9, i));
      for (RepairMode mode : {RepairMode::kSubset, RepairMode::kUpdate}) {
        RepairRequest request;
        request.mode = mode;
        request.fds = parsed_.fds;
        request.table = &warm;
        auto response = service->Serve(request);
        if (!response.ok()) verdicts_.Error(response.status().ToString());
      }
    }
  }

  RequestRecord Step(int, int64_t request, RepairService* service) override {
    ScopedSpan span("request", request);
    Slot& slot = slots_[request % kSlots];
    RepairRequest repair_request;
    repair_request.fds = parsed_.fds;
    double latency_ms = 0;
    if (slot.builder == nullptr || slot.rounds == kRounds) {
      // The slot's instance retired (or never started): a new table, served
      // cold, becomes the base of the next delta chain.
      std::optional<Table> base;
      {
        ScopedSpan prepare("client.prepare");
        const int instance = next_instance_++;
        // Two subset instances for every update instance: the two modes'
        // latencies differ ~3x, and an even split would put the median on
        // the boundary between them.
        slot.mode =
            instance % 3 == 2 ? RepairMode::kUpdate : RepairMode::kSubset;
        slot.rounds = 0;
        slot.rng.emplace(SubSeed(seed_, 10, instance));
        base = ScalingFamilyTable(parsed_, kRows, SubSeed(seed_, 11, instance));
        slot.builder = std::make_unique<DeltaBuilder>(*base);
      }
      repair_request.mode = slot.mode;
      repair_request.table = &*base;
      auto response = TimedServe(service, repair_request, &latency_ms);
      if (!response.ok()) {
        verdicts_.Error(response.status().ToString());
        return Failed(latency_ms);
      }
      RequestRecord record = Record(latency_ms, *response, false);
      auto answered = Keep(std::move(*base), std::move(response).value());
      checks_.Add(request, [this, mode = slot.mode, answered] {
        if (CheckFirstResponse(&verdicts_, mode, cover_, answered->table,
                               answered->response)) {
          CheckAgainstReplan(mode, answered->table, answered->response);
        }
      });
      return record;
    }
    // A write, then the read of the written state through ApplyDelta; both
    // are inside the timed part.
    TableDelta delta;
    {
      ScopedSpan build("storage.delta_build");
      const Clock::time_point start = Clock::now();
      RecordEdits(slot.builder.get(), &*slot.rng);
      delta = slot.builder->Finish();
      latency_ms +=
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
    }
    ++slot.rounds;
    repair_request.mode = slot.mode;
    repair_request.table = &slot.builder->table();
    repair_request.delta = &delta;
    auto response = TimedServe(service, repair_request, &latency_ms);
    if (!response.ok()) {
      verdicts_.Error(response.status().ToString());
      return Failed(latency_ms);
    }
    RequestRecord record = Record(latency_ms, *response, true);
    // The builder's table changes with the next edit: check a copy.
    auto answered =
        Keep(slot.builder->table().Clone(), std::move(response).value());
    checks_.Add(request, [this, mode = slot.mode, answered] {
      ScopedSpan gate("verify.gate");
      std::string failure = CheckConsistent(mode, cover_, answered->table,
                                            answered->response);
      if (!failure.empty()) {
        verdicts_.Wrong(failure);
        return;
      }
      CheckAgainstReplan(mode, answered->table, answered->response);
    });
    return record;
  }

  void FinishChecks() override { checks_.Flush(); }

  /// Two subset instances and an update instance, as in the request mix.
  std::vector<ProbeInput> ProbeInputs() override {
    probe_tables_.clear();
    for (int i = 0; i < 3; ++i) {
      probe_tables_.push_back(
          ScalingFamilyTable(parsed_, kRows, SubSeed(seed_, 8, i)));
    }
    std::vector<ProbeInput> inputs(3);
    for (int i = 0; i < 3; ++i) {
      inputs[i].fds = parsed_.fds;
      inputs[i].table = &probe_tables_[i];
    }
    inputs[2].mode = RepairMode::kUpdate;
    return inputs;
  }

 private:
  static constexpr int kSlots = 8;
  /// Deltas per instance before it retires and a fresh table takes its
  /// slot (so cold misses keep arriving beside the writes).
  static constexpr int kRounds = 16;

  struct Slot {
    RepairMode mode = RepairMode::kSubset;
    int rounds = 0;
    std::unique_ptr<DeltaBuilder> builder;
    std::optional<Rng> rng;
  };

  void CheckAgainstReplan(RepairMode mode, const Table& table,
                          const RepairResponse& response) {
    ScopedSpan span("verify.replan");
    std::string failure = CheckReplan(mode, cover_, table, response);
    if (!failure.empty()) verdicts_.Wrong(failure);
  }

  ParsedFdSet parsed_ = OfficeFds();
  FdSet cover_;
  uint64_t seed_ = 0;
  std::vector<Slot> slots_;
  int next_instance_ = 0;
  std::vector<Table> probe_tables_;
  DeferredChecks checks_;
};

// --- hard-soft -----------------------------------------------------------

class HardSoft : public Workload {
 public:
  void Generate(uint64_t seed) override {
    seed_ = seed;
    for (const ParsedFdSet& parsed : sets_) {
      covers_.push_back(parsed.fds.CanonicalCover());
    }
    soft_cover_ = CoverOf(office_.fds, SoftWeights());
  }

  void Start(RepairService* service) override {
    for (int set : {0, 1, 2, kSoft}) {
      Rng rng(SubSeed(seed_, 14, set));
      Table warm = set == kSoft ? SoftTable(&rng) : HardTable(set, &rng);
      auto response = service->Serve(RequestFor({set, false}, warm));
      if (!response.ok()) verdicts_.Error(response.status().ToString());
    }
  }

  RequestRecord Step(int, int64_t request, RepairService* service) override {
    ScopedSpan span("request", request);
    const Kind kind = KindOf(request);
    std::optional<Table> table;
    {
      ScopedSpan prepare("client.prepare");
      Rng rng(SubSeed(seed_, 15, request));
      table = kind.set == kSoft ? SoftTable(&rng) : HardTable(kind.set, &rng);
    }
    double latency_ms = 0;
    auto response = TimedServe(service, RequestFor(kind, *table), &latency_ms);
    if (!response.ok()) {
      verdicts_.Error(response.status().ToString());
      return Failed(latency_ms);
    }
    RequestRecord record = Record(latency_ms, *response, false);
    const bool soft = kind.set == kSoft;
    const RepairMode mode = soft ? RepairMode::kSoft : RepairMode::kSubset;
    const FdSet* cover = soft ? &soft_cover_ : &covers_[kind.set];
    auto answered = Keep(std::move(*table), std::move(response).value());
    checks_.Add(request, [this, mode, cover, answered] {
      CheckFirstResponse(&verdicts_, mode, *cover, answered->table,
                         answered->response);
    });
    return record;
  }

  void FinishChecks() override { checks_.Flush(); }

  /// Each hard set under auto routing, one under local-ratio, and a soft
  /// Office table.
  std::vector<ProbeInput> ProbeInputs() override {
    probe_tables_.clear();
    for (int set : {0, 1, 2, kSoft}) {
      Rng rng(SubSeed(seed_, 12, set));
      probe_tables_.push_back(set == kSoft ? SoftTable(&rng)
                                           : HardTable(set, &rng));
    }
    std::vector<ProbeInput> inputs;
    for (Kind kind : std::vector<Kind>{{0, false}, {1, false}, {2, false},
                                       {0, true}, {kSoft, false}}) {
      const int table = kind.set == kSoft ? 3 : kind.set;
      RepairRequest request = RequestFor(kind, probe_tables_[table]);
      ProbeInput input;
      input.mode = request.mode;
      input.fds = request.fds;
      input.table = &probe_tables_[table];
      input.backend = request.options.backend;
      input.soft_weights = request.options.soft_weights;
      inputs.push_back(input);
    }
    return inputs;
  }

 private:
  static constexpr int kSoft = 3;
  /// Finite weight of every Office FD in soft requests.
  static constexpr double kSoftWeight = 4.0;

  struct Kind {
    int set;  // 0..2: the hard sets; kSoft: soft Office
    bool local_ratio;
  };

  /// Every run of twelve requests holds each hard set twice under auto
  /// routing and once under local-ratio, and three soft requests, in a
  /// seeded order.
  Kind KindOf(int64_t request) const {
    std::vector<Kind> kinds;
    for (int set = 0; set < 3; ++set) {
      kinds.push_back({set, false});
      kinds.push_back({set, false});
      kinds.push_back({set, true});
    }
    for (int i = 0; i < 3; ++i) kinds.push_back({kSoft, false});
    Rng rng(SubSeed(seed_, 16, static_cast<uint64_t>(request / 12)));
    rng.Shuffle(&kinds);
    return kinds[request % 12];
  }

  std::vector<double> SoftWeights() const {
    return std::vector<double>(office_.fds.size(), kSoftWeight);
  }

  RepairRequest RequestFor(Kind kind, const Table& table) const {
    RepairRequest request;
    request.table = &table;
    if (kind.set == kSoft) {
      request.mode = RepairMode::kSoft;
      request.fds = office_.fds;
      request.options.soft_weights = SoftWeights();
    } else {
      request.fds = sets_[kind.set].fds;
      if (kind.local_ratio) request.options.backend = "local-ratio";
    }
    return request;
  }

  /// A consistent planted table with 64..256 corrupted cells.
  Table HardTable(int set, Rng* rng) const {
    PlantedTableOptions options;
    options.num_tuples = kRows;
    options.num_entities = 512;
    options.domain_size = 64;
    options.corruptions = static_cast<int>(rng->UniformInt(64, 256));
    return PlantedDirtyTable(sets_[set].schema, sets_[set].fds, options, rng);
  }

  Table SoftTable(Rng* rng) const {
    PlantedTableOptions options;
    options.num_tuples = kRows;
    options.num_entities = kRows / 10 + 1;
    options.corruptions = kRows / 50;
    options.heavy_fraction = 0.3;
    return PlantedDirtyTable(office_.schema, office_.fds, options, rng);
  }

  std::vector<ParsedFdSet> sets_ = {DeltaAtoBtoC(), DeltaTriangle(),
                                    Example42Hard()};
  ParsedFdSet office_ = OfficeFds();
  std::vector<FdSet> covers_;
  FdSet soft_cover_;
  uint64_t seed_ = 0;
  std::vector<Table> probe_tables_;
  DeferredChecks checks_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "office-repeat", "ssn-cold", "mutate-mixed", "hard-soft"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "office-repeat") return std::make_unique<OfficeRepeat>();
  if (name == "ssn-cold") return std::make_unique<SsnCold>();
  if (name == "mutate-mixed") return std::make_unique<MutateMixed>();
  if (name == "hard-soft") return std::make_unique<HardSoft>();
  return nullptr;
}

}  // namespace perfbench
