// Repair distances (§2.3): dist_sub(S, T) — the weighted sum of deleted
// tuples — and dist_upd(U, T) — the weighted Hamming distance of an update;
// plus RepairProvenance, the certificate every repair result carries of how
// close to optimal its distance is proven to be.

#ifndef FDREPAIR_STORAGE_DISTANCE_H_
#define FDREPAIR_STORAGE_DISTANCE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace fdrepair {

/// dist_sub(S, T) = Σ_{i ∈ ids(T) ∖ ids(S)} w_T(i). Fails unless S is a
/// subset of T: same schema, ids(S) ⊆ ids(T), identical tuples and weights.
StatusOr<double> DistSub(const Table& subset, const Table& table);

/// Hamming distance H(u, t): number of attributes where the tuples differ.
int HammingDistance(const Tuple& u, const Tuple& t);

/// dist_upd(U, T) = Σ_i w_T(i) · H(T[i], U[i]). Fails unless U is an update
/// of T: same schema, same identifiers, same weights.
StatusOr<double> DistUpd(const Table& update, const Table& table);

/// Convenience for verified inputs; aborts on malformed pairs.
double DistSubOrDie(const Table& subset, const Table& table);
double DistUpdOrDie(const Table& update, const Table& table);

/// What a repair result proves about itself. By the dichotomy (Theorem
/// 3.4) a repair is either provably optimal or an approximation on an
/// APX-complete instance, so every result reports its distance together
/// with a certificate, and the route and backend that produced it.
struct RepairProvenance {
  /// dist_sub / dist_upd to the input table, or the soft objective
  /// (deleted weight plus violation cost) for soft repairs.
  double distance = 0;
  /// True iff the repair is provably optimal.
  bool optimal = false;
  /// A-priori guarantee: distance <= ratio_bound · optimum (1 if optimal).
  double ratio_bound = 1;
  /// Proved lower bound on the optimum (= distance when optimal).
  double lower_bound = 0;
  /// distance / lower_bound: the certified per-instance ratio (1 if optimal).
  double achieved_ratio = 1;
  /// Human-readable route ("OptSRepair", "soft[...]", "urepair[...]").
  std::string route;
  /// Registry names of the solver backends that ran, "+"-joined when
  /// independent parts routed differently (empty when no solver ran).
  std::string backend;
};

/// The certificate of a repair of `distance` with the a-priori guarantee
/// `ratio` and a proved lower bound `lower_bound` on the optimum. Optimal
/// repairs certify themselves (ratio 1, lower bound = distance); otherwise
/// achieved_ratio = distance / lower_bound, clamped to >= 1 (and 1 when
/// the bound is ~0). Route and backend are left empty.
RepairProvenance Certify(double distance, bool optimal, double ratio,
                         double lower_bound);

/// The max_ratio quality gate: with max_ratio > 0, fails with
/// kResourceExhausted unless the stronger of the two certificates
/// (ratio_bound, achieved_ratio) is at most max_ratio. 0 disables it.
Status CheckMaxRatio(const RepairProvenance& provenance, double max_ratio);

/// The certified provenance of a repair made of independent parts
/// (relations, soft cores): distances and lower bounds add, optimality
/// holds iff it holds for every part, the a-priori ratio is the worst
/// part's, and distinct backend names join with "+" in first-use order.
/// No parts: the empty, optimal repair. The route is left empty.
RepairProvenance FoldIndependent(const std::vector<RepairProvenance>& parts);

}  // namespace fdrepair

#endif  // FDREPAIR_STORAGE_DISTANCE_H_
