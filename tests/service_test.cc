// The serving layer: canonicalized cache keys, bit-identical cached
// replays, LRU eviction, single-flight dedup, and admission control
// (kDeadlineExceeded / kUnavailable instead of stalling).

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "catalog/fd_parser.h"
#include "service/repair_service.h"
#include "srepair/planner.h"
#include "srepair/solver_backend.h"
#include "storage/table_delta.h"
#include "storage/table_hash.h"
#include "storage/table_io.h"
#include "urepair/planner.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace fdrepair {
namespace {

using std::chrono::milliseconds;

/// An in-memory deep copy with its own Schema and ValuePool (and a
/// different relation name): only *content* matches the source. CSV is not
/// used here because weight printing is 6-significant-digit lossy.
Table CopyContent(const Table& src) {
  std::vector<std::string> attrs;
  for (int c = 0; c < src.schema().arity(); ++c) {
    attrs.push_back(src.schema().AttributeName(c));
  }
  Table out(Schema::MakeOrDie("Copy", attrs));
  for (int row = 0; row < src.num_tuples(); ++row) {
    std::vector<std::string> values;
    for (int c = 0; c < src.schema().arity(); ++c) {
      values.push_back(src.ValueText(row, c));
    }
    EXPECT_TRUE(out.AddTupleWithId(src.id(row), values, src.weight(row)).ok());
  }
  return out;
}

RepairRequest Request(RepairMode mode, const FdSet& fds,
                      const Table* table) {
  RepairRequest request;
  request.mode = mode;
  request.fds = fds;
  request.table = table;
  return request;
}

void ExpectSameRepair(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_tuples(), b.num_tuples());
  for (int row = 0; row < a.num_tuples(); ++row) {
    EXPECT_EQ(a.id(row), b.id(row)) << row;
    EXPECT_EQ(a.weight(row), b.weight(row)) << row;
    for (int c = 0; c < a.schema().arity(); ++c) {
      EXPECT_EQ(a.ValueText(row, c), b.ValueText(row, c))
          << "row " << row << " col " << c;
    }
  }
}

void ExpectSameResponse(const RepairResponse& a, const RepairResponse& b) {
  ExpectSameRepair(a.repair, b.repair);
  EXPECT_EQ(a.distance, b.distance);
  EXPECT_EQ(a.optimal, b.optimal);
  EXPECT_EQ(a.ratio_bound, b.ratio_bound);
  EXPECT_EQ(a.route, b.route);
  EXPECT_EQ(a.cache_key, b.cache_key);
}

TEST(TableHashTest, EqualContentHashesEqualAcrossPools) {
  ParsedFdSet parsed = OfficeFds();
  Table a = ScalingFamilyTable(parsed, 64, 7);
  Table b = CopyContent(a);
  EXPECT_EQ(TableContentHash(a), TableContentHash(b));
}

TEST(TableHashTest, ValueWeightAndIdChangesChangeTheHash) {
  Table base(Schema::MakeOrDie("T", {"a", "b"}));
  base.AddTuple({"x", "y"}, 1.0);
  uint64_t h0 = TableContentHash(base);

  Table value_differs(Schema::MakeOrDie("T", {"a", "b"}));
  value_differs.AddTuple({"x", "z"}, 1.0);
  EXPECT_NE(TableContentHash(value_differs), h0);

  Table weight_differs(Schema::MakeOrDie("T", {"a", "b"}));
  weight_differs.AddTuple({"x", "y"}, 2.0);
  EXPECT_NE(TableContentHash(weight_differs), h0);

  Table id_differs(Schema::MakeOrDie("T", {"a", "b"}));
  ASSERT_TRUE(id_differs.AddTupleWithId(7, {"x", "y"}, 1.0).ok());
  EXPECT_NE(TableContentHash(id_differs), h0);

  // Concatenation framing: ("xy", "") must not collide with ("x", "y").
  Table framing(Schema::MakeOrDie("T", {"a", "b"}));
  framing.AddTuple({"xy", ""}, 1.0);
  EXPECT_NE(TableContentHash(framing), h0);
}

TEST(CanonicalCoverTest, NormalizesPhrasingsAndStaysEquivalent) {
  Schema schema = Schema::MakeOrDie("R", {"A", "B", "C"});
  FdSet minimal = ParseFdSetOrDie(schema, "A -> B; B -> C");
  // Inflated lhs (A B -> C has extraneous B) and an implied FD (A -> C).
  FdSet inflated = ParseFdSetOrDie(schema, "A -> B; B -> C; A B -> C");
  FdSet implied = ParseFdSetOrDie(schema, "A -> B; B -> C; A -> C");
  EXPECT_EQ(minimal.CanonicalCover(), minimal);
  EXPECT_EQ(inflated.CanonicalCover(), minimal);
  EXPECT_EQ(implied.CanonicalCover(), minimal);
  EXPECT_TRUE(inflated.CanonicalCover().EquivalentTo(inflated));

  // A cyclic equivalence class must keep its cycle (equivalence, not just
  // minimality, is the load-bearing property).
  FdSet cycle = ParseFdSetOrDie(schema, "A -> B; B -> C; C -> A");
  EXPECT_TRUE(cycle.CanonicalCover().EquivalentTo(cycle));
}

TEST(RepairServiceTest, SubsetHitAndMissAreBitIdenticalToPlanner) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 600, 11);
  RepairService service;
  RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &table);

  auto miss = service.Serve(request);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->cache_hit);
  auto hit = service.Serve(request);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(miss->cache_key, hit->cache_key);

  auto direct = ComputeSRepair(parsed.fds, table);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ExpectSameRepair(direct->repair, miss->repair);
  ExpectSameRepair(direct->repair, hit->repair);
  EXPECT_EQ(miss->distance, direct->distance);
  EXPECT_EQ(hit->distance, direct->distance);
  EXPECT_EQ(hit->optimal, direct->optimal);

  RepairServiceStats stats = service.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(RepairServiceTest, UpdateHitAndMissAreBitIdenticalToPlanner) {
  ParsedFdSet parsed = OfficeFds();
  Rng rng(13);
  PlantedTableOptions options;
  options.num_tuples = 80;
  options.corruptions = 12;
  Table table = PlantedDirtyTable(parsed.schema, parsed.fds, options, &rng);
  // The direct run uses a content-identical copy with its own ValuePool.
  // Fresh-constant names are deterministic ("⊥t<id>.<attr>", derived from
  // the cell, not from pool counters), so a shared pool would also work —
  // the private pool is kept to pin exactly that cross-pool agreement.
  auto copy = TableFromCsv(TableToCsv(table));
  ASSERT_TRUE(copy.ok()) << copy.status();
  FdSet copy_fds = ParseFdSetOrDie(
      copy->schema(), "facility -> city; facility room -> floor");

  RepairService service;
  RepairRequest request = Request(RepairMode::kUpdate, parsed.fds, &table);
  auto miss = service.Serve(request);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->cache_hit);
  auto hit = service.Serve(request);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->cache_hit);

  auto direct = ComputeURepair(copy_fds, *copy);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ExpectSameRepair(direct->update, miss->repair);
  ExpectSameRepair(direct->update, hit->repair);
  EXPECT_EQ(miss->distance, direct->distance);
  EXPECT_EQ(hit->distance, direct->distance);
}

TEST(RepairServiceTest, EquivalentFdPhrasingsShareOneCacheEntry) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 200, 17);
  RepairService service;

  RepairRequest minimal = Request(RepairMode::kSubset, parsed.fds, &table);
  auto first = service.Serve(minimal);
  ASSERT_TRUE(first.ok()) << first.status();

  // Same FDs plus an implied one, listed in a different order: the
  // canonical cover collapses both phrasings to one key.
  FdSet rephrased = ParseFdSetOrDie(
      parsed.schema,
      "facility room -> floor; facility -> city; facility room -> city");
  RepairRequest equivalent = Request(RepairMode::kSubset, rephrased, &table);
  auto second = service.Serve(equivalent);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(first->cache_key, second->cache_key);
  ExpectSameRepair(first->repair, second->repair);
  EXPECT_EQ(service.stats().misses, 1u);
  EXPECT_EQ(service.stats().hits, 1u);
}

TEST(RepairServiceTest, ContentIdenticalTablesShareOneCacheEntry) {
  ParsedFdSet parsed = OfficeFds();
  Table original = ScalingFamilyTable(parsed, 150, 19);
  Table copy = CopyContent(original);

  RepairService service;
  auto first =
      service.Serve(Request(RepairMode::kSubset, parsed.fds, &original));
  ASSERT_TRUE(first.ok()) << first.status();
  // The copy lives in its own Table/ValuePool under another relation name;
  // only content matches. The FD set is re-parsed against the copy's
  // schema (same attribute order).
  FdSet copy_fds = ParseFdSetOrDie(
      copy.schema(), "facility -> city; facility room -> floor");
  auto second =
      service.Serve(Request(RepairMode::kSubset, copy_fds, &copy));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->cache_hit);
  ExpectSameRepair(first->repair, second->repair);
}

TEST(RepairServiceTest, LruEvictsBeyondCapacity) {
  ParsedFdSet parsed = OfficeFds();
  std::vector<Table> tables;
  for (int i = 0; i < 3; ++i) {
    tables.push_back(ScalingFamilyTable(parsed, 100 + 10 * i, 100 + i));
  }
  RepairServiceOptions options;
  options.cache_capacity = 2;
  RepairService service(options);

  for (const Table& table : tables) {
    auto response =
        service.Serve(Request(RepairMode::kSubset, parsed.fds, &table));
    ASSERT_TRUE(response.ok()) << response.status();
  }
  RepairServiceStats stats = service.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);

  // tables[0] was least recently used: it recomputes; tables[2] still hits.
  auto evicted =
      service.Serve(Request(RepairMode::kSubset, parsed.fds, &tables[0]));
  ASSERT_TRUE(evicted.ok()) << evicted.status();
  EXPECT_FALSE(evicted->cache_hit);
  auto kept =
      service.Serve(Request(RepairMode::kSubset, parsed.fds, &tables[2]));
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_TRUE(kept->cache_hit);
}

TEST(RepairServiceTest, CapacityZeroDisablesCachingButStillServes) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 120, 23);
  RepairServiceOptions options;
  options.cache_capacity = 0;
  RepairService service(options);
  RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &table);
  auto first = service.Serve(request);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = service.Serve(request);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(second->cache_hit);
  ExpectSameRepair(first->repair, second->repair);
  RepairServiceStats stats = service.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(RepairServiceTest, BypassCacheNeitherReadsNorStores) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 120, 29);
  RepairService service;
  RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &table);
  request.options.bypass_cache = true;
  auto first = service.Serve(request);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->cache_hit);
  RepairServiceStats stats = service.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

// The thread hint applies to every mode: subset, update and update-delta
// requests pinned to the calling thread (threads = 1) answer bit-identically
// to the pooled default on a 4-thread engine and to a 1-thread engine.
TEST(RepairServiceTest, SequentialThreadHintMatchesParallelResult) {
  ParsedFdSet ssn = Example31Ssn();
  Table subset_table = ScalingFamilyTable(ssn, 800, 31);
  ParsedFdSet office = OfficeFds();
  Table update_table = ScalingFamilyTable(office, 6000, 73);
  DeltaBuilder builder(update_table);
  for (int row = 0; row < update_table.num_tuples(); row += 97) {
    ASSERT_TRUE(
        builder.Update(update_table.id(row), 1, "moved" + std::to_string(row))
            .ok());
  }
  const TableDelta delta = builder.Finish();

  struct Setup {
    int engine_threads;
    int hint;
  };
  std::vector<StatusOr<RepairResponse>> subset, update, spliced;
  for (const Setup setup : {Setup{4, 0}, Setup{4, 1}, Setup{1, 0}}) {
    RepairServiceOptions options;
    options.engine.threads = setup.engine_threads;
    options.engine.parallel_cutoff = 1;  // fan out whenever the pool may
    RepairService service(options);

    RepairRequest subset_request =
        Request(RepairMode::kSubset, ssn.fds, &subset_table);
    subset_request.options.threads = setup.hint;
    subset.push_back(service.Serve(subset_request));

    RepairRequest update_request =
        Request(RepairMode::kUpdate, office.fds, &update_table);
    update_request.options.threads = setup.hint;
    update.push_back(service.Serve(update_request));

    RepairRequest delta_request =
        Request(RepairMode::kUpdate, office.fds, &builder.table());
    delta_request.options.threads = setup.hint;
    delta_request.delta = &delta;
    spliced.push_back(service.ApplyDelta(delta_request));
    EXPECT_EQ(service.stats().udelta_splices, 1u)
        << "engine threads " << setup.engine_threads << ", hint "
        << setup.hint;
  }
  for (size_t i = 0; i < subset.size(); ++i) {
    ASSERT_TRUE(subset[i].ok()) << i << ": " << subset[i].status();
    ASSERT_TRUE(update[i].ok()) << i << ": " << update[i].status();
    ASSERT_TRUE(spliced[i].ok()) << i << ": " << spliced[i].status();
    EXPECT_FALSE(spliced[i]->cache_hit);
    ExpectSameResponse(*subset[0], *subset[i]);
    ExpectSameResponse(*update[0], *update[i]);
    ExpectSameResponse(*spliced[0], *spliced[i]);
  }
}

TEST(RepairServiceTest, SingleFlightDeduplicatesConcurrentIdenticalRequests) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 20000, 37);
  RepairService service;
  constexpr int kClients = 6;
  std::vector<StatusOr<RepairResponse>> responses(
      kClients, Status::Internal("never ran"));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      responses[c] =
          service.Serve(Request(RepairMode::kSubset, parsed.fds, &table));
    });
  }
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(responses[c].ok()) << c << ": " << responses[c].status();
    ExpectSameRepair(responses[0]->repair, responses[c]->repair);
  }
  RepairServiceStats stats = service.stats();
  // Exactly one execution; everyone else was served from it — either by
  // waiting on the in-flight computation (counted in single_flight_waits
  // AND in hits once served) or by finding the finished entry.
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kClients - 1));
  EXPECT_LE(stats.single_flight_waits, static_cast<uint64_t>(kClients - 1));
}

TEST(RepairServiceTest, DeadlineAndCapacityRejectionUnderFullQueue) {
  // The occupant must hold the single execution slot for much longer than
  // the queued request's deadline on any machine. A chain family does not
  // cut it anymore — the span recursion core repairs a 400k-tuple office
  // chain in tens of milliseconds — so use the ssn lhs-marriage family,
  // whose cost is dominated by the bipartite matching, not by grouping.
  ParsedFdSet parsed = Example31Ssn();
  Table big = ScalingFamilyTable(parsed, 32768, 41);
  Table small_a = ScalingFamilyTable(parsed, 50, 43);
  Table small_b = ScalingFamilyTable(parsed, 60, 47);

  RepairServiceOptions options;
  options.engine.threads = 1;
  options.max_inflight = 1;
  options.max_queue = 1;
  RepairService service(options);

  // Occupy the single execution slot with a long request.
  std::thread occupant([&] {
    auto response =
        service.Serve(Request(RepairMode::kSubset, parsed.fds, &big));
    EXPECT_TRUE(response.ok()) << response.status();
  });
  while (service.stats().inflight == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }

  // Fill the one queue slot with a request that will time out waiting.
  std::thread queued([&] {
    RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &small_a);
    request.options.deadline = milliseconds(300);
    auto response = service.Serve(request);
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  });
  while (service.stats().queued == 0 &&
         service.stats().rejected_deadline == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }

  // Queue full: the next distinct request is rejected immediately.
  if (service.stats().queued > 0) {
    RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &small_b);
    auto response = service.Serve(request);
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
    EXPECT_GE(service.stats().rejected_unavailable, 1u);
  }

  queued.join();
  occupant.join();
  EXPECT_GE(service.stats().rejected_deadline, 1u);

  // The slot drained: a fresh request serves normally again.
  auto after =
      service.Serve(Request(RepairMode::kSubset, parsed.fds, &small_b));
  EXPECT_TRUE(after.ok()) << after.status();
}

TEST(RepairServiceTest, ExpiredDeadlineRejectsBeforeExecution) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 5000, 53);
  RepairService service;
  RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &table);
  request.options.deadline = milliseconds(0);
  auto response = service.Serve(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().rejected_deadline, 1u);
  // The failure was not cached: a follow-up without a deadline succeeds.
  request.options.deadline.reset();
  auto retry = service.Serve(request);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_FALSE(retry->cache_hit);
}

TEST(RepairServiceTest, ExpiredDeadlineRejectsCacheHit) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 500, 57);
  RepairService service;
  RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &table);
  ASSERT_TRUE(service.Serve(request).ok());
  ASSERT_EQ(service.stats().entries, 1u);

  // A ready entry exists, but the budget is already spent: no replay.
  request.options.deadline = milliseconds(0);
  auto expired = service.Serve(request);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  RepairServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // The entry itself is untouched: a request with budget left replays it.
  request.options.deadline = milliseconds(60000);
  auto hit = service.Serve(request);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(service.stats().hits, 1u);
}

TEST(RepairServiceTest, FollowerDoesNotInheritLeaderDeadlineFailure) {
  // A follower coalesced onto a leader whose own deadline kills the
  // computation must not be handed that kDeadlineExceeded: deadline and
  // capacity failures are the leader's circumstances, so the follower
  // retries as the new leader. Whichever interleaving the scheduler
  // picks, the deadline-free request must succeed and the expired one
  // must fail.
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 30000, 61);
  RepairService service;

  StatusOr<RepairResponse> expired = Status::Internal("never ran");
  StatusOr<RepairResponse> patient = Status::Internal("never ran");
  std::thread expired_client([&] {
    RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &table);
    request.options.deadline = milliseconds(0);
    expired = service.Serve(request);
  });
  std::thread patient_client([&] {
    patient =
        service.Serve(Request(RepairMode::kSubset, parsed.fds, &table));
  });
  expired_client.join();
  patient_client.join();

  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(patient.ok()) << patient.status();
  auto direct = ComputeSRepair(parsed.fds, table);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ExpectSameRepair(direct->repair, patient->repair);
}

TEST(RepairServiceTest, BackendSelectionRoundTripsAndKeysTheCache) {
  // The 3-way A->B violation clique: any repair keeps one tuple. The exact
  // backends prove distance 2; the fused local-ratio route certifies only
  // the a-priori factor 2 against its packing bound of 1.
  ParsedFdSet parsed = DeltaAtoBtoC();
  Table table(parsed.schema);
  table.AddTuple({"a", "x", "p"});
  table.AddTuple({"a", "y", "q"});
  table.AddTuple({"a", "z", "r"});
  RepairService service;

  RepairRequest exact = Request(RepairMode::kSubset, parsed.fds, &table);
  exact.options.backend = kSolverIlp;
  auto miss = service.Serve(exact);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->cache_hit);
  EXPECT_EQ(miss->backend, kSolverIlp);
  EXPECT_EQ(miss->route, "ilp-branch-and-bound");
  EXPECT_TRUE(miss->optimal);
  EXPECT_DOUBLE_EQ(miss->distance, 2.0);
  EXPECT_DOUBLE_EQ(miss->lower_bound, 2.0);
  EXPECT_DOUBLE_EQ(miss->achieved_ratio, 1.0);

  // The cached replay carries the full solver provenance.
  auto hit = service.Serve(exact);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->cache_key, miss->cache_key);
  EXPECT_EQ(hit->backend, miss->backend);
  EXPECT_EQ(hit->lower_bound, miss->lower_bound);
  EXPECT_EQ(hit->achieved_ratio, miss->achieved_ratio);
  ExpectSameRepair(miss->repair, hit->repair);

  // Same table, different backend: a distinct key, never an aliased hit.
  RepairRequest approx = Request(RepairMode::kSubset, parsed.fds, &table);
  approx.options.backend = kSolverLocalRatio;
  auto other = service.Serve(approx);
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_FALSE(other->cache_hit);
  EXPECT_NE(other->cache_key, miss->cache_key);
  EXPECT_EQ(other->backend, kSolverLocalRatio);
  EXPECT_FALSE(other->optimal);
  EXPECT_DOUBLE_EQ(other->ratio_bound, 2.0);
  EXPECT_DOUBLE_EQ(other->lower_bound, 1.0);
  EXPECT_DOUBLE_EQ(other->achieved_ratio, 2.0);
  EXPECT_EQ(service.stats().misses, 2u);
}

TEST(RepairServiceTest, MaxRatioGateSurfacesAndIsKeyedSeparately) {
  ParsedFdSet parsed = DeltaAtoBtoC();
  Table table(parsed.schema);
  table.AddTuple({"a", "x", "p"});
  table.AddTuple({"a", "y", "q"});
  table.AddTuple({"a", "z", "r"});
  RepairService service;

  // The fused approx route certifies only ratio 2 here, so a 1.5 gate
  // rejects with kResourceExhausted — surfaced verbatim by the service.
  RepairRequest gated = Request(RepairMode::kSubset, parsed.fds, &table);
  gated.options.backend = kSolverLocalRatio;
  gated.options.max_ratio = 1.5;
  auto rejected = service.Serve(gated);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // The failure was not cached, and the ungated request has its own key:
  // it executes and succeeds.
  RepairRequest ungated = Request(RepairMode::kSubset, parsed.fds, &table);
  ungated.options.backend = kSolverLocalRatio;
  auto accepted = service.Serve(ungated);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  EXPECT_FALSE(accepted->cache_hit);

  // An exact backend passes the same gate (certified ratio 1).
  RepairRequest exact_gated = Request(RepairMode::kSubset, parsed.fds, &table);
  exact_gated.options.backend = kSolverBnb;
  exact_gated.options.max_ratio = 1.5;
  auto proved = service.Serve(exact_gated);
  ASSERT_TRUE(proved.ok()) << proved.status();
  EXPECT_TRUE(proved->optimal);
  EXPECT_EQ(proved->backend, kSolverBnb);
}

TEST(RepairServiceTest, SolverKnobsRejectedForUpdateMode) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 50, 67);
  RepairService service;

  RepairRequest with_backend = Request(RepairMode::kUpdate, parsed.fds, &table);
  with_backend.options.backend = kSolverIlp;
  EXPECT_EQ(service.Serve(with_backend).status().code(),
            StatusCode::kInvalidArgument);

  RepairRequest with_ratio = Request(RepairMode::kUpdate, parsed.fds, &table);
  with_ratio.options.max_ratio = 1.5;
  EXPECT_EQ(service.Serve(with_ratio).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RepairServiceTest, InvalidateCacheForcesRecomputation) {
  ParsedFdSet parsed = OfficeFds();
  Table table = ScalingFamilyTable(parsed, 100, 59);
  RepairService service;
  RepairRequest request = Request(RepairMode::kSubset, parsed.fds, &table);
  ASSERT_TRUE(service.Serve(request).ok());
  service.InvalidateCache();
  EXPECT_EQ(service.stats().entries, 0u);
  auto again = service.Serve(request);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_FALSE(again->cache_hit);
}

}  // namespace
}  // namespace fdrepair
