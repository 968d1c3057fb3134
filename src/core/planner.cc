#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/radix_join.h"
#include "join/indexed_join.h"
#include "join/nested_loop_join.h"
#include "join/reference_join.h"
#include "join/sort_merge_join.h"
#include "join/sweep_join.h"

namespace tempo {

double EstimateNestedLoopCost(uint32_t pages_r, uint32_t pages_s,
                              uint32_t buffer_pages, const CostModel& model) {
  return NestedLoopAnalyticCost(pages_r, pages_s, buffer_pages, model);
}

namespace {

/// Sort cost for one relation: whole-relation read+write when it fits,
/// else run formation plus ceil(log_fanin(runs)) merge passes, each a
/// read+write of every page. Random seeks: one per run/refill chunk —
/// approximated as one random per buffer-full on each pass.
double EstimateSortCost(uint32_t pages, uint32_t buffer_pages,
                        const CostModel& model) {
  if (pages == 0) return 0.0;
  auto pass_cost = [&](double chunks) {
    // One pass = read all pages + write all pages, with `chunks` seeks on
    // each side.
    return 2.0 * (chunks * model.random_weight +
                  (static_cast<double>(pages) - chunks) *
                      model.sequential_weight);
  };
  double chunks = std::ceil(static_cast<double>(pages) / buffer_pages);
  if (pages <= buffer_pages) {
    return pass_cost(1.0);  // read, sort in memory, write
  }
  double cost = pass_cost(chunks);  // run formation
  double runs = chunks;
  double fanin = std::max<double>(2.0, buffer_pages - 1);
  while (runs > 1.0) {
    cost += pass_cost(std::max(1.0, runs));
    runs = std::ceil(runs / fanin);
    if (runs <= 1.0) break;
  }
  return cost;
}

}  // namespace

double EstimateSortMergeCost(uint32_t pages_r, uint32_t pages_s,
                             uint32_t buffer_pages, const CostModel& model) {
  double sort = EstimateSortCost(pages_r, buffer_pages, model) +
                EstimateSortCost(pages_s, buffer_pages, model);
  double coscan = model.Cost(2, pages_r + pages_s >= 2
                                    ? pages_r + pages_s - 2
                                    : 0);
  return sort + coscan;
}

double EstimatePartitionJoinCost(uint32_t pages_r, uint32_t pages_s,
                                 uint32_t buffer_pages,
                                 const CostModel& model) {
  uint32_t area = buffer_pages > 3 ? buffer_pages - 3 : 1;
  if (pages_r <= area) {
    // In-memory path: one pass over each input.
    return model.Cost(2, pages_r + pages_s >= 2 ? pages_r + pages_s - 2 : 0);
  }
  double num_partitions =
      std::ceil(static_cast<double>(pages_r) / area);
  // Sampling (bounded by one scan), Grace write+read of both inputs
  // (one seek per partition per phase per relation), inner read.
  double sampling = model.Cost(1, pages_r > 0 ? pages_r - 1 : 0);
  double partition_io =
      2.0 * (2.0 * num_partitions * model.random_weight +
             static_cast<double>(pages_r + pages_s) *
                 model.sequential_weight);
  return sampling + partition_io;
}

double EstimateRadixJoinCost(uint32_t pages_r, uint32_t pages_s,
                             const CostModel& model) {
  return model.Cost(2, pages_r + pages_s >= 2 ? pages_r + pages_s - 2 : 0);
}

double EstimateSweepJoinCost(uint32_t pages_r, uint32_t pages_s,
                             uint32_t buffer_pages, const CostModel& model) {
  // Sort both + one co-scan — the sweep pays exactly sort-merge's I/O;
  // its advantage (gapless active maps, no back-up re-reads) is CPU/cache
  // work the I/O model does not price.
  return EstimateSortMergeCost(pages_r, pages_s, buffer_pages, model);
}

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

JoinEstimate EstimateRadixRow(uint32_t pr, uint32_t ps,
                              const ExecOptions& options) {
  const uint64_t budget = ResolveRadixBudgetBytes(options);
  const uint64_t footprint = EstimateRadixFootprintBytes(pr, ps);
  if (footprint > budget) {
    return {JoinExecutor::kInMemoryRadix, kInfinity,
            "ineligible: est footprint " + std::to_string(footprint) +
                " B exceeds budget " + std::to_string(budget) + " B"};
  }
  return {JoinExecutor::kInMemoryRadix,
          EstimateRadixJoinCost(pr, ps, options.cost_model),
          "columnar in-memory radix; est footprint " +
              std::to_string(footprint) + " B <= budget " +
              std::to_string(budget) + " B"};
}

JoinEstimate EstimateNestedLoopRow(uint32_t pr, uint32_t ps,
                                   const ExecOptions& options) {
  return {JoinExecutor::kNestedLoop,
          EstimateNestedLoopCost(pr, ps, options.buffer_pages,
                                 options.cost_model),
          "blocks(r) x scan(s); exact closed form"};
}

JoinEstimate EstimateSortMergeRow(uint32_t pr, uint32_t ps,
                                  const ExecOptions& options) {
  return {JoinExecutor::kSortMerge,
          EstimateSortMergeCost(pr, ps, options.buffer_pages,
                                options.cost_model),
          "sort both + co-scan; back-up not modelled"};
}

JoinEstimate EstimatePartitionRow(uint32_t pr, uint32_t ps,
                                  const ExecOptions& options) {
  return {JoinExecutor::kPartition,
          EstimatePartitionJoinCost(pr, ps, options.buffer_pages,
                                    options.cost_model),
          "sample + Grace partition both + join scan; cache not modelled"};
}

JoinEstimate EstimateSweepRow(uint32_t pr, uint32_t ps,
                              const ExecOptions& options) {
  return {JoinExecutor::kSweep,
          EstimateSweepJoinCost(pr, ps, options.buffer_pages,
                                options.cost_model),
          "sort both + one sweep; active maps are in-memory"};
}

StatusOr<JoinRunStats> RunPartitionRow(StoredRelation* r, StoredRelation* s,
                                       StoredRelation* out,
                                       const ExecOptions& options,
                                       ExecContext* ctx) {
  PartitionJoinOptions pj;
  static_cast<ExecOptions&>(pj) = options;
  return PartitionVtJoin(r, s, out, pj, ctx);
}

StatusOr<JoinRunStats> RunRadixRow(StoredRelation* r, StoredRelation* s,
                                   StoredRelation* out,
                                   const ExecOptions& options,
                                   ExecContext* ctx) {
  RadixJoinOptions rj;
  static_cast<ExecOptions&>(rj) = options;
  return RadixVtJoin(r, s, out, rj, ctx);
}

/// The oracle as an executor: both inputs read fully (charged as
/// sequential scans), joined in memory, results appended through the
/// canonical writer (sorted serialized records). Canonical order makes an
/// oracle run byte-identical to any executor run of the same request —
/// the partition executor's sequenced variants and the sweep executor
/// write the same canonical order — and to itself regardless of the
/// predicate. Inner joins evaluate the TemporalPredicate via
/// ReferenceTemporalJoin (the single ground truth for every executor x
/// predicate pair); the sequenced outer/anti kinds via
/// ReferenceSequencedJoin.
StatusOr<JoinRunStats> RunReferenceRow(StoredRelation* r, StoredRelation* s,
                                       StoredRelation* out,
                                       const ExecOptions& options,
                                       ExecContext* ctx) {
  TEMPO_RETURN_IF_ERROR(ValidateExecOptions(JoinExecutor::kReference, options));
  JoinKind kind = options.join_kind;
  TEMPO_RETURN_IF_ERROR(PrepareJoinForKind(r, s, out, kind).status());
  Disk* disk = r->disk();
  IoAccountant& acct = disk->accountant();
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&acct);
  }
  IoStats before = acct.stats();
  TEMPO_ASSIGN_OR_RETURN(std::vector<Tuple> r_tuples, r->ReadAll());
  TEMPO_ASSIGN_OR_RETURN(std::vector<Tuple> s_tuples, s->ReadAll());
  std::vector<Tuple> result;
  if (kind == JoinKind::kInner) {
    TEMPO_ASSIGN_OR_RETURN(
        result, ReferenceTemporalJoin(r->schema(), r_tuples, s->schema(),
                                      s_tuples, options.predicate));
  } else {
    TEMPO_ASSIGN_OR_RETURN(
        result, ReferenceSequencedJoin(r->schema(), r_tuples, s->schema(),
                                       s_tuples, kind));
  }
  ResultWriter writer = ResultWriter::Canonical(out);
  for (const Tuple& t : result) {
    TEMPO_RETURN_IF_ERROR(writer.EmitAssembled(t));
  }
  TEMPO_RETURN_IF_ERROR(writer.Finish());
  JoinRunStats stats;
  stats.io = acct.stats() - before;
  stats.output_tuples = result.size();
  if (kind != JoinKind::kInner) {
    stats.Set(Metric::kSequencedJoinKind,
              static_cast<double>(static_cast<uint8_t>(kind)));
  }
  ExportMetrics(stats, ctx);
  return stats;
}

/// kAuto: plans, then runs the chosen row. The stats carry
/// kPlannedAlgorithm (the JoinExecutor value) and kPlannedCost. If the
/// radix row was chosen but exceeded its memory budget mid-extract, the
/// partition row reruns the join and kRadixFallback is set.
///
/// With a non-null `ctx`, planning runs under a kPlan span and the
/// estimate is annotated onto the chosen row's root span, so ExplainAnalyze
/// prints estimated vs. actual cost side by side.
StatusOr<JoinRunStats> RunPlannedRow(StoredRelation* r, StoredRelation* s,
                                     StoredRelation* out,
                                     const ExecOptions& options,
                                     ExecContext* ctx) {
  TEMPO_RETURN_IF_ERROR(ValidateExecOptions(JoinExecutor::kAuto, options));
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&r->disk()->accountant());
  }
  JoinPlan plan;
  {
    TraceSpan plan_span = SpanIf(ctx, Phase::kPlan);
    plan = PlanVtJoin(r, s, options);
  }
  const ExecutorRow& chosen = ExecutorRowOf(plan.algorithm);
  const double est = plan.candidates.front().estimated_cost;
  if (ctx != nullptr) {
    ctx->AnnotateEstimate(chosen.root, est);
    // Record the footprint-vs-budget decision inputs whichever path was
    // chosen, so EXPLAIN ANALYZE can show why the radix path was (not)
    // taken.
    SetMetric(ctx, Metric::kRadixEstFootprintBytes,
              static_cast<double>(
                  EstimateRadixFootprintBytes(r->num_pages(), s->num_pages())));
    SetMetric(ctx, Metric::kRadixBudgetBytes,
              static_cast<double>(ResolveRadixBudgetBytes(options)));
  }
  StatusOr<JoinRunStats> stats = chosen.run(r, s, out, options, ctx);
  bool radix_fallback = false;
  if (chosen.executor == JoinExecutor::kInMemoryRadix && !stats.ok() &&
      stats.status().code() == StatusCode::kResourceExhausted) {
    // The optimistic plan-time footprint was wrong: extraction hit the
    // budget. Nothing was emitted yet, so clear and rerun on the paged
    // partition join.
    radix_fallback = true;
    TEMPO_RETURN_IF_ERROR(out->Clear());
    stats = RunPartitionRow(r, s, out, options, ctx);
  }
  if (stats.ok()) {
    if (radix_fallback) stats->Set(Metric::kRadixFallback, 1.0);
    stats->Set(Metric::kPlannedAlgorithm,
               static_cast<double>(static_cast<int>(plan.algorithm)));
    stats->Set(Metric::kPlannedCost, est);
    ExportMetrics(*stats, ctx);
  }
  return stats;
}

// The radix row comes first: at equal estimated I/O (it ties nested-loop
// and the in-memory partition path when everything fits), stable_sort
// keeps it ahead — flat columnar probing beats the tuple-at-a-time paths
// on CPU, which the I/O cost model cannot see. The sweep comes after
// sort-merge, whose estimated I/O it ties: under the default predicate
// every established pick stands, while a meets/met-by predicate leaves the
// sweep as the only finite candidate.
constexpr ExecutorRow kExecutorTable[] = {
    {JoinExecutor::kInMemoryRadix, Phase::kRadixJoin, &EstimateRadixRow,
     &RunRadixRow},
    {JoinExecutor::kNestedLoop, Phase::kNestedLoop, &EstimateNestedLoopRow,
     &NestedLoopVtJoin},
    {JoinExecutor::kSortMerge, Phase::kSortMerge, &EstimateSortMergeRow,
     &SortMergeVtJoin},
    {JoinExecutor::kPartition, Phase::kPartitionJoin, &EstimatePartitionRow,
     &RunPartitionRow},
    {JoinExecutor::kSweep, Phase::kSweepJoin, &EstimateSweepRow,
     &SweepVtJoin},
    {JoinExecutor::kIndexed, Phase::kIndexed, nullptr, &IndexedVtJoin},
    // The oracle and the planner have no executor span of their own; their
    // work is traced under the root.
    {JoinExecutor::kReference, Phase::kExecute, nullptr, &RunReferenceRow},
    {JoinExecutor::kAuto, Phase::kExecute, nullptr, &RunPlannedRow},
};

}  // namespace

std::span<const ExecutorRow> ExecutorTable() { return kExecutorTable; }

const ExecutorRow& ExecutorRowOf(JoinExecutor executor) {
  for (const ExecutorRow& row : kExecutorTable) {
    if (row.executor == executor) return row;
  }
  return kExecutorTable[std::size(kExecutorTable) - 1];  // unreachable
}

JoinPlan PlanVtJoin(StoredRelation* r, StoredRelation* s,
                    const ExecOptions& options) {
  const uint32_t pr = r->num_pages();
  const uint32_t ps = s->num_pages();
  JoinPlan plan;
  for (const ExecutorRow& row : kExecutorTable) {
    if (row.estimate == nullptr) continue;
    Status eligible = ValidateExecOptions(row.executor, options);
    if (eligible.ok()) {
      plan.candidates.push_back(row.estimate(pr, ps, options));
    } else {
      plan.candidates.push_back({row.executor, kInfinity,
                                 "ineligible: " +
                                     std::string(eligible.message())});
    }
  }
  std::stable_sort(plan.candidates.begin(), plan.candidates.end(),
                   [](const JoinEstimate& a, const JoinEstimate& b) {
                     return a.estimated_cost < b.estimated_cost;
                   });
  plan.algorithm = plan.candidates.front().algorithm;
  return plan;
}

}  // namespace tempo
