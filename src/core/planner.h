#ifndef TEMPO_CORE_PLANNER_H_
#define TEMPO_CORE_PLANNER_H_

#include <span>
#include <string>

#include "core/partition_join.h"
#include "join/join_common.h"

namespace tempo {

/// One executor's planner estimate.
struct JoinEstimate {
  JoinExecutor algorithm;
  double estimated_cost = 0.0;
  std::string rationale;
};

/// The planner's decision: the chosen executor plus every candidate's
/// estimate (sorted best-first) for EXPLAIN-style introspection.
struct JoinPlan {
  JoinExecutor algorithm;
  std::vector<JoinEstimate> candidates;
};

/// Analytic I/O cost estimates, catalog-only (no data access):
///
///  - nested-loop: the paper's exact closed form
///    (NestedLoopAnalyticCost);
///  - sort-merge: run formation + merge passes + co-scan, assuming no
///    back-up (optimistic for long-lived-heavy data — the planner cannot
///    see interval distributions without sampling, which is exactly the
///    partition join's own planning trick);
///  - partition join: one sampling scan bound + Grace write/read of both
///    inputs + inner scan (cache traffic unknown, omitted; also
///    optimistic, to the same degree).
///
/// The estimates are deliberately cheap and coarse; tests pin their
/// regime behaviour (nested-loop wins when an input fits in memory,
/// partition join wins in the paper's big-inputs/modest-memory regime).
double EstimateNestedLoopCost(uint32_t pages_r, uint32_t pages_s,
                              uint32_t buffer_pages, const CostModel& model);
double EstimateSortMergeCost(uint32_t pages_r, uint32_t pages_s,
                             uint32_t buffer_pages, const CostModel& model);
double EstimatePartitionJoinCost(uint32_t pages_r, uint32_t pages_s,
                                 uint32_t buffer_pages,
                                 const CostModel& model);

/// I/O cost of the in-memory radix path when it is eligible: one
/// sequential pass over each input (all other work is CPU/cache traffic,
/// which the I/O cost model does not price — the point of the fast path).
/// Beyond ValidateExecOptions, the radix row has a memory condition:
/// PlanVtJoin prices it only when EstimateRadixFootprintBytes fits the
/// resolved budget (see core/radix_join.h).
double EstimateRadixJoinCost(uint32_t pages_r, uint32_t pages_s,
                             const CostModel& model);

/// I/O cost of the endpoint-sweep executor: sort both inputs plus one
/// co-scan — identical to the sort-merge formula (the sweep's active maps
/// are in-memory state the I/O model does not price). It is listed after
/// sort-merge, so at equal estimated I/O the default overlap predicate
/// keeps the established pick; the sweep wins outright whenever the
/// predicate rules the other executors out.
double EstimateSweepJoinCost(uint32_t pages_r, uint32_t pages_s,
                             uint32_t buffer_pages, const CostModel& model);

/// One executor's row in the table every consumer reads: the root span
/// the planner annotates its estimate onto, the cost estimate (null for
/// the executors the planner never picks: indexed, reference, auto) and
/// the run function. Run functions take the shared ExecOptions; the
/// partition and radix rows slice them into their own option structs, and
/// the auto row plans, then runs the chosen row. Every run function checks
/// ValidateExecOptions first.
struct ExecutorRow {
  using Estimate = JoinEstimate (*)(uint32_t pages_r, uint32_t pages_s,
                                    const ExecOptions& options);
  using Run = StatusOr<JoinRunStats> (*)(StoredRelation* r,
                                         StoredRelation* s,
                                         StoredRelation* out,
                                         const ExecOptions& options,
                                         ExecContext* ctx);
  JoinExecutor executor;
  Phase root;
  Estimate estimate;
  Run run;
};

/// All rows, planned ones first in the planner's tie-break order: radix,
/// nested-loop, sort-merge, partition, sweep.
std::span<const ExecutorRow> ExecutorTable();

/// The row of `executor`.
const ExecutorRow& ExecutorRowOf(JoinExecutor executor);

/// Ranks the planned executors for r |X|_v s under `options` and returns
/// the full ranking. Each row ValidateExecOptions rejects ranks at
/// infinite cost with the rejection as its rationale, and so does the
/// radix row when its estimated footprint exceeds the memory budget.
/// Ties keep table order (stable sort).
JoinPlan PlanVtJoin(StoredRelation* r, StoredRelation* s,
                    const ExecOptions& options);

}  // namespace tempo

#endif  // TEMPO_CORE_PLANNER_H_
