#ifndef TEMPO_OBS_EXEC_OPTIONS_H_
#define TEMPO_OBS_EXEC_OPTIONS_H_

#include <cstdint>

#include "common/status.h"
#include "storage/io_accountant.h"
#include "temporal/temporal_predicate.h"

namespace tempo {

/// The sequenced join variants a request may name. kInner is the paper's
/// valid-time natural join; the outer and anti variants additionally emit,
/// for every input tuple of the preserved side(s), the *uncovered
/// subintervals* of its validity — the portions of its interval not
/// overlapped by any key-matching partner — computed with the
/// IntervalSet difference arithmetic (src/temporal/interval_set.h):
///
///   kLeftOuter  — matches plus unmatched r subintervals, s-only
///                 attributes padded with NULLs;
///   kFullOuter  — matches plus unmatched subintervals of both sides,
///                 the other side's private attributes padded with NULLs;
///   kAnti       — *only* the unmatched r subintervals, in r's own schema
///                 (no padding; the sequenced NOT EXISTS).
///
/// Non-inner output is emitted in the canonical sequenced result order
/// (sorted serialized records), so executor and oracle runs are
/// byte-identical at any thread count.
enum class JoinKind : uint8_t {
  kInner = 0,
  kLeftOuter = 1,
  kFullOuter = 2,
  kAnti = 3,
};

inline const char* JoinKindName(JoinKind k) {
  switch (k) {
    case JoinKind::kInner:
      return "inner";
    case JoinKind::kLeftOuter:
      return "left-outer";
    case JoinKind::kFullOuter:
      return "full-outer";
    case JoinKind::kAnti:
      return "anti";
  }
  return "?";
}

/// The join executors, named once. The first five enumerator values are
/// the kPlannedAlgorithm metric encoding (0 = nested-loop, 1 = sort-merge,
/// 2 = partition, 3 = radix, 4 = sweep), so the order is append-only.
/// kAuto defers to the cost-based planner; kReference is the in-memory
/// oracle (O(|r|*|s|)), kept addressable for verification runs.
/// Which executor evaluates which join is ValidateExecOptions's rule; the
/// planner's costs and run functions are the rows of ExecutorTable()
/// (core/planner.h).
enum class JoinExecutor {
  kNestedLoop,
  kSortMerge,
  kPartition,
  kInMemoryRadix,
  kSweep,
  kIndexed,
  kReference,
  kAuto,
};

const char* JoinExecutorName(JoinExecutor e);

/// The options every join executor shares. Executor option structs
/// inherit from this, so a partition-specific options value can be
/// sliced down to the common core (`static_cast<ExecOptions&>(part_opts)
/// = opts;`) instead of copying field by field.
struct ExecOptions {
  /// Buffer pages available to the algorithm (the paper's M).
  uint32_t buffer_pages = 2048;

  /// Random/sequential weights for cost formulas (the paper's default
  /// 5:1 trial ratio).
  CostModel cost_model = CostModel::Ratio(5.0);

  /// Seed for sampling and any randomized placement decisions.
  uint64_t seed = 42;

  // Threading deliberately has no knob here: executors read the Scheduler
  // handle on their ExecContext (serial when absent), so one resolved
  // scheduler config governs every concurrent query instead of each
  // options value carrying its own thread count.

  /// Which sequenced join variant to evaluate. Which executors accept
  /// which kind is ValidateExecOptions's rule.
  JoinKind join_kind = JoinKind::kInner;

  /// The temporal matching condition: a disjunction of Allen relations.
  /// Defaults to `overlap`, the valid-time natural join's condition.
  /// Which executors accept which predicate is ValidateExecOptions's rule.
  TemporalPredicate predicate;

  /// In-memory footprint budget (bytes) for the columnar radix fast path.
  /// 0 resolves at run time: TEMPO_RADIX_THRESHOLD_MB when set (strictly
  /// parsed), else buffer_pages * kPageSize — i.e. by default the radix
  /// path may pin exactly the memory the paper's buffSize grants the
  /// algorithm. See ResolveRadixBudgetBytes (core/radix_join.h).
  uint64_t radix_budget_bytes = 0;
};

/// The one eligibility rule for executor x join kind x predicate: OK when
/// `executor` can evaluate `options`, otherwise InvalidArgument naming all
/// three. Every executor entry function calls it first, so direct calls
/// are as safe as facade requests; the planner prices only the executors
/// it accepts. The rule, over predicate classes (paper Section 4.1: the
/// partition framework evaluates every predicate implying a shared
/// chronon):
///
///  - inner joins under a predicate whose relations all share a chronon
///    run on every executor;
///  - adjacency predicates (meets/met-by, no before/after) need the sweep
///    executor (whose active-map expiry keeps adjacent tuples alive one
///    extra chronon), auto planning, or the reference oracle;
///  - predicates containing before/after match unboundedly separated
///    tuples and run on the reference oracle only;
///  - non-inner kinds (outer/anti) run on the partition executor (auto
///    routes there) or the reference oracle, and only under the default
///    overlap predicate, over which the sequenced semantics are defined.
Status ValidateExecOptions(JoinExecutor executor, const ExecOptions& options);

// Older spellings of the names above, still used by the perfbench/ harness.
using JoinAlgorithm = JoinExecutor;
using VtJoinOptions = ExecOptions;
inline constexpr auto& JoinAlgorithmName = JoinExecutorName;

}  // namespace tempo

#endif  // TEMPO_OBS_EXEC_OPTIONS_H_
