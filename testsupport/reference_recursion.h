// The pre-span OptSRepair recursion — test/bench oracle only, not a
// production path.
//
// Reproduces the recursion the span core (srepair/opt_srepair.cc)
// replaced, verbatim in structure: one materialized index vector per block
// per level (TableView::GroupBy / PartitionForMarriage), one
// NextSimplification call per node, sequential, with block-local
// accumulation merged in first-appearance order. Kept as the permanent
// executable specification of the recursion's output:
// tests/span_recursion_test.cc pins OptSRepairRows bit-identical to it,
// and bench/bench_hotpath.cc measures the span core against it (the
// tracked `hotpath.*` gates).

#ifndef FDREPAIR_TESTSUPPORT_REFERENCE_RECURSION_H_
#define FDREPAIR_TESTSUPPORT_REFERENCE_RECURSION_H_

#include <vector>

#include "catalog/fdset.h"
#include "common/status.h"
#include "storage/table_view.h"

namespace fdrepair {

/// The dense row positions of an optimal S-repair of `view`, in increasing
/// order — the same contract as OptSRepairRows. Fails with
/// kFailedPrecondition when OSRSucceeds(∆) is false.
StatusOr<std::vector<int>> ReferenceOptSRepairRows(const FdSet& fds,
                                                   const TableView& view);

}  // namespace fdrepair

#endif  // FDREPAIR_TESTSUPPORT_REFERENCE_RECURSION_H_
