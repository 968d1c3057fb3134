#include "obs/exec_options.h"

#include <string>

namespace tempo {

const char* JoinExecutorName(JoinExecutor e) {
  switch (e) {
    case JoinExecutor::kNestedLoop:
      return "nested-loop";
    case JoinExecutor::kSortMerge:
      return "sort-merge";
    case JoinExecutor::kPartition:
      return "partition";
    case JoinExecutor::kInMemoryRadix:
      return "in-memory-radix";
    case JoinExecutor::kSweep:
      return "sweep";
    case JoinExecutor::kIndexed:
      return "indexed";
    case JoinExecutor::kReference:
      return "reference";
    case JoinExecutor::kAuto:
      return "auto";
  }
  return "?";
}

namespace {

/// What an executor evaluates beyond inner joins under a shared-chronon
/// predicate, which every executor evaluates.
struct Reach {
  bool outer = false;      ///< the outer/anti kinds
  bool adjacency = false;  ///< meets/met-by
  bool disjoint = false;   ///< before/after
};

Reach ReachOf(JoinExecutor e) {
  switch (e) {
    case JoinExecutor::kNestedLoop:
    case JoinExecutor::kSortMerge:
    case JoinExecutor::kIndexed:
    case JoinExecutor::kInMemoryRadix:
      // These only ever pair tuples that meet in a block, partition or
      // active window.
      return {};
    case JoinExecutor::kPartition:
      // Coverage tracking for the uncovered subintervals rides on the
      // partition join's dedup rule.
      return {.outer = true};
    case JoinExecutor::kSweep:
      return {.adjacency = true};
    case JoinExecutor::kAuto:
      return {.outer = true, .adjacency = true};
    case JoinExecutor::kReference:
      return {.outer = true, .adjacency = true, .disjoint = true};
  }
  return {};
}

}  // namespace

Status ValidateExecOptions(JoinExecutor executor, const ExecOptions& options) {
  const TemporalPredicate& pred = options.predicate;
  const Reach reach = ReachOf(executor);
  const char* why = nullptr;
  if (options.join_kind != JoinKind::kInner) {
    if (!reach.outer) {
      why = "sequenced outer/anti joins run on the partition executor (or "
            "auto, which routes there) or the reference oracle";
    } else if (!pred.IsOverlapDefault()) {
      why = "sequenced outer/anti semantics are defined over the default "
            "overlap predicate only";
    }
  } else if (pred.HasDisjointNonAdjacent()) {
    if (!reach.disjoint) {
      why = "before/after match unboundedly separated tuples, which only "
            "the reference oracle evaluates";
    }
  } else if (!pred.ImpliesSharedChronon() && !reach.adjacency) {
    why = "adjacency relations (meets/met-by) need the sweep executor, auto "
          "planning, or the reference oracle";
  }
  if (why == nullptr) return Status::OK();
  return Status::InvalidArgument(
      std::string("executor ") + JoinExecutorName(executor) +
      " cannot evaluate join kind " + JoinKindName(options.join_kind) +
      " under predicate '" + pred.Name() + "': " + why);
}

}  // namespace tempo
