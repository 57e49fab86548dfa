// Layer probes for the traced run: each times one module's public entry
// point on a workload's own generated inputs, inside a span named after the
// layer, so every per-layer metric is measured where the layer's work
// happens rather than inferred from end-to-end latency.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <map>
#include <string>
#include <vector>

#include "catalog/fdset.h"
#include "common/random.h"
#include "service/repair_service.h"
#include "storage/table.h"
#include "storage/table_delta.h"

namespace perfbench {

/// One request shape the workload sends, with a table it would send.
struct ProbeInput {
  fdrepair::RepairMode mode = fdrepair::RepairMode::kSubset;
  fdrepair::FdSet fds;
  const fdrepair::Table* table = nullptr;
  std::string backend;
  std::vector<double> soft_weights;

  fdrepair::RepairRequest Request() const;
};

/// Records ~1% edits of `builder`'s table: mostly cell updates drawn from
/// the generators' value domain, plus some inserts and erases.
void RecordEdits(fdrepair::DeltaBuilder* builder, fdrepair::Rng* rng);

/// Runs every layer probe; returns per-layer metric name -> value (the
/// median over the inputs the layer applies to). The graph.matching_*
/// metrics come from inputs whose cover starts with an lhs marriage; where
/// none does, the top-level matching never runs and they are 0. Planner
/// and service probes run `engine_threads` wide, as the workload's service.
std::map<std::string, double> RunLayerProbes(
    const std::vector<ProbeInput>& inputs, int engine_threads);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
