#ifndef TEMPO_QUERY_SEQUENCED_EXEC_H_
#define TEMPO_QUERY_SEQUENCED_EXEC_H_

#include <memory>
#include <string>

#include "common/statusor.h"
#include "join/join_common.h"
#include "query/query_plan.h"
#include "service/join_request.h"
#include "storage/disk.h"
#include "storage/stored_relation.h"

namespace tempo {

/// Knobs of one sequenced query run. Join nodes inherit the shared
/// executor options (buffer pages, cost model, seed); each node's
/// JoinKind comes from the plan, overriding `join.join_kind`.
struct QueryOptions {
  ExecOptions join;
  /// Executor for join nodes: kAuto defers to the planner.
  JoinExecutor executor = JoinExecutor::kAuto;
};

/// Result of one sequenced query: the materialized output relation (owned,
/// living on the Disk the query ran against) plus summary counters.
struct QueryResult {
  std::unique_ptr<StoredRelation> relation;
  uint64_t output_tuples = 0;
};

/// Evaluates a sequenced query plan bottom-up, materializing every
/// non-scan node as a temporary relation on `disk` (intermediates are
/// deleted as soon as their parent consumed them; the root's relation is
/// returned). All I/O is charged to the disk's accountant; with a non-null
/// `ctx` the run is traced as a span tree (sequenced query > one span per
/// operator node) for EXPLAIN ANALYZE.
///
/// Operator semantics (all change preserving — no coalescing anywhere, so
/// the pipeline is snapshot reducible; snapshot_oracle.h checks this):
///
///   select      attr-op-literal filter; rows pass through byte-identical
///               (zero-copy record append).
///   project     keeps named attributes in the given order; intervals
///               untouched, duplicates kept (unlike algebra::Project,
///               which coalesces).
///   join        the sequenced join variants via RunJoin: inner, or the
///               partition executor's left-outer / full-outer / anti with
///               uncovered-subinterval emission.
///   difference  union-compatible r -ᵗ s: per r-tuple, the subintervals
///               of its validity not covered by any value-equivalent
///               s-tuple (IntervalSet::SubtractAll); each output interval
///               derives from exactly one r tuple (unlike
///               algebra::VtDifference, which merges value groups).
///
/// `name_prefix` namespaces the temporary files ("<prefix>.n<k>") so
/// concurrent queries on one disk do not collide.
StatusOr<QueryResult> RunSequencedQuery(const QueryPlan& plan, Disk* disk,
                                        const QueryOptions& options = {},
                                        ExecContext* ctx = nullptr,
                                        const std::string& name_prefix = "q");

}  // namespace tempo

#endif  // TEMPO_QUERY_SEQUENCED_EXEC_H_
