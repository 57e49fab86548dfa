// The repair certificate (storage/distance.h RepairProvenance) holds on
// every planner and every serving mode: the proved lower bound never
// exceeds the distance, an optimal repair certifies itself exactly, the
// certified ratio sits in [1, ratio_bound], and every max_ratio rejection
// carries the one shared message of CheckMaxRatio.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "service/repair_service.h"
#include "srepair/planner.h"
#include "srepair/soft_repair.h"
#include "srepair/solver_backend.h"
#include "storage/distance.h"
#include "urepair/opt_urepair.h"
#include "workloads/example_fdsets.h"
#include "workloads/generators.h"

namespace fdrepair {
namespace {

constexpr double kTol = 1e-9;

enum class Planner {
  kSRepair,
  kSoftRepair,
  kURepairCells,
  kServeSubset,
  kServeUpdate,
  kServeSoft,
};

void PrintTo(Planner planner, std::ostream* os) {
  static constexpr const char* kNames[] = {
      "ComputeSRepair", "ComputeSoftRepair", "OptURepairCells",
      "ServeSubset",    "ServeUpdate",       "ServeSoft"};
  *os << kNames[static_cast<int>(planner)];
}

void ExpectCertificate(const RepairProvenance& p, const std::string& label) {
  EXPECT_LE(p.lower_bound, p.distance + kTol * (1 + p.distance)) << label;
  if (p.optimal) {
    EXPECT_EQ(p.lower_bound, p.distance) << label;
    EXPECT_EQ(p.achieved_ratio, 1.0) << label;
  }
  EXPECT_GE(p.achieved_ratio, 1.0) << label;
  EXPECT_LE(p.achieved_ratio, p.ratio_bound + kTol) << label;
}

/// Either the gate accepted a repair certified within max_ratio, or it
/// rejected with the shared message.
template <typename Result>
void ExpectGated(const StatusOr<Result>& result, double max_ratio,
                 const std::string& label) {
  if (result.ok()) {
    ExpectCertificate(*result, label);
    EXPECT_LE(std::min(result->ratio_bound, result->achieved_ratio),
              max_ratio + kTol)
        << label;
    return;
  }
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted) << label;
  EXPECT_NE(result.status().message().find(
                "repair certified only within ratio"),
            std::string::npos)
      << label << ": " << result.status();
}

/// Alternating finite and infinite weights over the set's FDs, so the soft
/// planner reaches its conflicted cores.
FdSet MixedWeights(const FdSet& fds) {
  std::vector<double> weights;
  for (int i = 0; i < fds.size(); ++i) {
    weights.push_back(i % 2 == 0 ? 0.75 + 0.5 * i : kHardFdWeight);
  }
  return fds.WithWeights(weights).value();
}

class CertificateInvariantTest
    : public ::testing::TestWithParam<std::tuple<int, Planner>> {};

TEST_P(CertificateInvariantTest, HoldsOnRandomTables) {
  const auto& [set_index, planner] = GetParam();
  const NamedFdSet named = AllNamedFdSets()[set_index];
  const FdSet& fds = named.parsed.fds;
  const FdSet soft = MixedWeights(fds);
  Rng rng(7919 + set_index);
  for (int trial = 0; trial < 4; ++trial) {
    RandomTableOptions table_options;
    table_options.num_tuples = 8 + static_cast<int>(rng.UniformUint64(24));
    table_options.domain_size = 2 + static_cast<int>(rng.UniformUint64(2));
    table_options.heavy_fraction = trial % 2 == 0 ? 0.4 : 0.0;
    Rng table_rng = rng.Fork();
    const Table table =
        RandomTable(named.parsed.schema, table_options, &table_rng);
    const std::string label = named.name + " trial " + std::to_string(trial);
    // The fused local-ratio route never claims optimality, so a 1.0 gate
    // rejects it unless its per-instance certificate is tight.
    const std::string approx = kSolverLocalRatio;
    constexpr double kGate = 1.0;

    switch (planner) {
      case Planner::kSRepair: {
        auto result = ComputeSRepair(fds, table);
        ASSERT_TRUE(result.ok()) << label << ": " << result.status();
        ExpectCertificate(*result, label);
        SRepairOptions options;
        options.backend = approx;
        auto approximate = ComputeSRepair(fds, table, options);
        ASSERT_TRUE(approximate.ok()) << label;
        ExpectCertificate(*approximate, label + " local-ratio");
        options.max_ratio = kGate;
        ExpectGated(ComputeSRepair(fds, table, options), kGate,
                    label + " gated");
        break;
      }
      case Planner::kSoftRepair: {
        for (const FdSet& weighted : {fds, soft}) {
          auto result = ComputeSoftRepair(weighted, table);
          ASSERT_TRUE(result.ok()) << label << ": " << result.status();
          ExpectCertificate(*result, label);
          SoftRepairOptions options;
          options.backend = approx;
          auto approximate = ComputeSoftRepair(weighted, table, options);
          ASSERT_TRUE(approximate.ok()) << label;
          ExpectCertificate(*approximate, label + " local-ratio");
          options.max_ratio = kGate;
          ExpectGated(ComputeSoftRepair(weighted, table, options), kGate,
                      label + " gated");
        }
        break;
      }
      case Planner::kURepairCells: {
        for (bool exact_search : {true, false}) {
          OptURepairOptions options;
          options.planner.allow_exact_search = exact_search;
          auto result = OptURepairCells(fds, table, options);
          ASSERT_TRUE(result.ok()) << label << ": " << result.status();
          ExpectCertificate(*result, label);
        }
        break;
      }
      case Planner::kServeSubset:
      case Planner::kServeUpdate:
      case Planner::kServeSoft: {
        const RepairMode mode = planner == Planner::kServeSubset
                                    ? RepairMode::kSubset
                                : planner == Planner::kServeUpdate
                                    ? RepairMode::kUpdate
                                    : RepairMode::kSoft;
        RepairServiceOptions service_options;
        service_options.urepair.allow_exact_search = trial % 2 == 0;
        RepairService service(service_options);
        RepairRequest request;
        request.mode = mode;
        request.fds = mode == RepairMode::kSoft ? soft : fds;
        request.table = &table;
        for (int pass = 0; pass < 2; ++pass) {  // miss, then cached replay
          auto response = service.Serve(request);
          ASSERT_TRUE(response.ok()) << label << ": " << response.status();
          EXPECT_EQ(response->cache_hit, pass == 1) << label;
          ExpectCertificate(*response, label);
        }
        if (mode != RepairMode::kUpdate) {
          request.options.backend = approx;
          request.options.max_ratio = kGate;
          ExpectGated(service.Serve(request), kGate, label + " gated");
        }
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NamedSetsAndPlanners, CertificateInvariantTest,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(AllNamedFdSets().size())),
        ::testing::Values(Planner::kSRepair, Planner::kSoftRepair,
                          Planner::kURepairCells, Planner::kServeSubset,
                          Planner::kServeUpdate, Planner::kServeSoft)));

// The three shared provenance functions on hand-checked values.
TEST(RepairProvenanceTest, CertifyGateAndFold) {
  const RepairProvenance exact = Certify(4, true, 2, 0);
  EXPECT_EQ(exact.ratio_bound, 1.0);
  EXPECT_EQ(exact.lower_bound, 4.0);
  EXPECT_EQ(exact.achieved_ratio, 1.0);

  RepairProvenance approx = Certify(3, false, 2, 2);
  EXPECT_EQ(approx.ratio_bound, 2.0);
  EXPECT_EQ(approx.lower_bound, 2.0);
  EXPECT_EQ(approx.achieved_ratio, 1.5);
  EXPECT_EQ(Certify(0, false, 2, 0).achieved_ratio, 1.0);

  EXPECT_TRUE(CheckMaxRatio(approx, 0).ok());
  EXPECT_TRUE(CheckMaxRatio(approx, 1.5).ok());
  const Status rejected = CheckMaxRatio(approx, 1.25);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);

  approx.backend = kSolverLocalRatio;
  RepairProvenance other = Certify(1, true, 1, 1);
  other.backend = kSolverBnb;
  const RepairProvenance whole = FoldIndependent({approx, other, approx});
  EXPECT_EQ(whole.distance, 7.0);
  EXPECT_EQ(whole.lower_bound, 5.0);
  EXPECT_FALSE(whole.optimal);
  EXPECT_EQ(whole.ratio_bound, 2.0);
  EXPECT_EQ(whole.achieved_ratio, 7.0 / 5.0);
  EXPECT_EQ(whole.backend, "local-ratio+bnb");

  const RepairProvenance empty = FoldIndependent({});
  EXPECT_TRUE(empty.optimal);
  EXPECT_EQ(empty.distance, 0.0);
  EXPECT_EQ(empty.ratio_bound, 1.0);
  EXPECT_EQ(FoldIndependent({exact, other}).ratio_bound, 1.0);
}

}  // namespace
}  // namespace fdrepair
