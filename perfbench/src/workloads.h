// The four traffic mixes. Each builds its tables, FD sets and request log
// with the repository's own generators (workloads/), from the seed alone;
// the service only ever sees those inputs.
//
//   office-repeat  Office FDs, n=8192: Zipf-skewed re-sends of a pool of
//                  instances larger than the cache, 2 clients.
//   ssn-cold       Example 3.1's lhs marriage, a fresh table per request
//                  (70% n=4096, 30% n=8192), 1 client.
//   mutate-mixed   Office FDs, n=8192, subset and update instances; each
//                  repeat first edits ~1% of rows and goes through
//                  ApplyDelta, 1 client.
//   hard-soft      APX-hard FD sets on planted dirty tables (auto routing
//                  and local-ratio), plus 25% soft Office requests, 1
//                  client.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "loop.h"

namespace perfbench {

const std::vector<std::string>& WorkloadNames();

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
