#include "layers.h"

#include <thread>

#include "common/random.h"
#include "core/partition_join.h"
#include "core/planner.h"
#include "storage/page_arena.h"

namespace perfbench {

namespace {

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"storage.pages_read_per_query", "pages"},
    {"storage.pages_written_per_query", "pages"},
    {"storage.random_io_per_query", "ops"},
    {"storage.buffer_hit_ratio", "ratio"},
    {"relation.decode_ms", "ms"},
    {"core.plan_ms", "ms"},
    {"core.determine_part_intervals_ms", "ms"},
    {"core.grace_partition_ms", "ms"},
    {"core.grace_partition_cpu_ms", "ms"},
    {"core.join_partitions_ms", "ms"},
    {"core.join_partitions_cpu_ms", "ms"},
    {"core.cache_pages_spilled", "pages"},
    {"core.radix_join_ms", "ms"},
    {"core.radix_fallback_frac", "ratio"},
    {"sampling.samples_drawn", "count"},
    {"sampling.io_cost", "io_cost"},
    {"join.external_sort_ms", "ms"},
    {"join.external_sort_cpu_ms", "ms"},
    {"join.sweep_join_ms", "ms"},
    {"join.sweep_active_peak", "tuples"},
    {"parallel.speedup.grace_partition", "x"},
    {"parallel.speedup.join_partitions", "x"},
    {"parallel.speedup.external_sort", "x"},
    {"parallel.speedup.radix_join", "x"},
    {"service.admission_wait_ms_p50", "ms"},
    {"service.admission_wait_ms_p95", "ms"},
    {"service.exec_ms_p50", "ms"},
    {"service.queue_peak", "count"},
    {"service.pool_occupancy_mean", "ratio"},
    {"query.select_ms", "ms"},
    {"query.join_ms", "ms"},
    {"query.project_ms", "ms"},
    {"query.difference_ms", "ms"},
    {"query.intermediate_pages_written", "pages"},
    {"obs.trace_overhead_frac", "ratio"},
};

void SumPhaseInto(const tempo::SpanNode& node, tempo::Phase phase,
                  PhaseTotal* total) {
  if (node.phase == phase) {
    total->seconds += node.stats.wall_seconds;
    total->io = total->io + node.InclusiveIo();
    return;  // nested spans of the same phase are already included
  }
  for (const auto& child : node.children) SumPhaseInto(*child, phase, total);
}

tempo::BufferCounters SumBuffers(const tempo::SpanNode& node) {
  tempo::BufferCounters total = node.stats.buffers;
  for (const auto& child : node.children) {
    total = total + SumBuffers(*child);
  }
  return total;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  return kPerLayer;
}

void LayerMetrics::Set(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

void LayerMetrics::EmitInto(RunResult* result) const {
  for (const auto& [name, unit] : kPerLayer) {
    double value = 0.0;
    for (const auto& [n, v] : values_) {
      if (n == name) value = v;
    }
    result->Add(name, value, unit);
  }
}

StatusOr<PartitionTrace> TracedPartitionJoin(
    tempo::StoredRelation* r, tempo::StoredRelation* s,
    tempo::StoredRelation* out, const tempo::VtJoinOptions& options,
    tempo::Scheduler* scheduler, bool plan_first, const std::string& root_name,
    uint64_t query, SpanRecorder* spans) {
  tempo::Disk* disk = r->disk();
  tempo::IoAccountant* acct = &disk->accountant();
  PartitionTrace trace;
  // The context PartitionVtJoin would run under: scheduler attached and
  // the accountant bound (which also turns on page-read latency timing).
  tempo::ExecContext ctx;
  ctx.SetScheduler(scheduler);
  ctx.BindAccountant(acct);
  SpanRecorder::Scope root = spans->Open(root_name, query, 0, acct);

  if (plan_first) {
    SpanRecorder::Scope span =
        spans->Open("PlanVtJoin", query, root.id(), acct);
    tempo::JoinPlan plan = tempo::PlanVtJoin(r, s, options);
    trace.plan_ms = span.End() * 1e3;
    if (plan.algorithm != tempo::JoinAlgorithm::kPartition) {
      return Status::FailedPrecondition(
          std::string("planner picked ") +
          tempo::JoinAlgorithmName(plan.algorithm) +
          " where the workload expects the partition join");
    }
  }
  TEMPO_ASSIGN_OR_RETURN(tempo::NaturalJoinLayout layout,
                         tempo::PrepareJoin(r, s, out));
  tempo::PartitionJoinOptions pj;
  static_cast<tempo::ExecOptions&>(pj) = options;
  tempo::PartitionPlanOptions plan_options;
  plan_options.buffer_pages = pj.buffer_pages;
  plan_options.cost_model = pj.cost_model;
  plan_options.kolmogorov_critical = pj.kolmogorov_critical;
  plan_options.in_scan_sampling = pj.in_scan_sampling;
  plan_options.forced_num_partitions = pj.forced_num_partitions;
  tempo::Random rng(pj.seed);

  StatusOr<tempo::PartitionPlan> plan_or = Status::Internal("unset");
  uint64_t determine_span_id = 0;
  uint64_t join_span_id = 0;
  {
    SpanRecorder::Scope span =
        spans->Open("DeterminePartIntervals", query, root.id(), acct);
    determine_span_id = span.id();
    plan_or = tempo::DeterminePartIntervals(r, plan_options, &rng, &ctx);
    trace.determine_ms = span.End() * 1e3;
    trace.sample_io_cost = span.record().total_io.Cost(PaperCostModel());
  }
  TEMPO_RETURN_IF_ERROR(plan_or.status());
  const tempo::PartitionPlan& plan = *plan_or;
  if (plan.num_partitions <= 1) {
    return Status::FailedPrecondition(
        "outer relation fits in memory; the workload expects partitioning");
  }
  trace.samples_drawn = plan.samples_drawn;

  // Grace partitioning of both inputs, mirroring PartitionVtJoin: with a
  // pool, r is partitioned on a second coordinator thread while s is
  // partitioned here.
  StatusOr<tempo::PartitionedRelation> pr_or = Status::Internal("unset");
  StatusOr<tempo::PartitionedRelation> ps_or = Status::Internal("unset");
  const double grace_start = WallSeconds();
  const double grace_cpu_start = ProcessCpuSeconds();
  auto partition_r = [&] {
    SpanRecorder::Scope span =
        spans->Open("GracePartition r", query, root.id(), acct);
    pr_or = tempo::GracePartition(r, plan.spec, pj.buffer_pages, pj.placement,
                                  r->name(), scheduler);
  };
  auto partition_s = [&] {
    SpanRecorder::Scope span =
        spans->Open("GracePartition s", query, root.id(), acct);
    ps_or = tempo::GracePartition(s, plan.spec, pj.buffer_pages, pj.placement,
                                  s->name(), scheduler);
  };
  if (tempo::SchedulerPool(scheduler) != nullptr) {
    std::thread r_thread(partition_r);
    partition_s();
    r_thread.join();
  } else {
    partition_r();
    partition_s();
  }
  trace.grace_ms = (WallSeconds() - grace_start) * 1e3;
  trace.grace_cpu_ms = (ProcessCpuSeconds() - grace_cpu_start) * 1e3;
  auto drop_partitions = [&] {
    if (pr_or.ok()) pr_or->Drop();
    if (ps_or.ok()) ps_or->Drop();
  };
  if (!pr_or.ok() || !ps_or.ok()) {
    drop_partitions();
    return !pr_or.ok() ? pr_or.status() : ps_or.status();
  }

  StatusOr<tempo::JoinRunStats> join_or = Status::Internal("unset");
  {
    SpanRecorder::Scope span =
        spans->Open("JoinPartitions", query, root.id(), acct);
    join_span_id = span.id();
    join_or = tempo::JoinPartitions(layout, plan.spec, &*pr_or, &*ps_or, out,
                                    pj.buffer_pages, pj.placement,
                                    pj.predicate, pj.tuple_cache_memory_pages,
                                    &ctx);
    trace.join_ms = span.End() * 1e3;
    trace.join_cpu_ms = span.record().process_cpu * 1e3;
  }
  drop_partitions();
  TEMPO_RETURN_IF_ERROR(join_or.status());
  trace.cache_pages_spilled =
      join_or->Get(tempo::Metric::kCachePagesSpilled);
  trace.total_ms = root.End() * 1e3;
  trace.io = root.record().total_io;
  trace.buffer_hit_ratio = BufferHitRatio(ctx.tracer().root());
  // The library's own spans inside the two calls that took the context.
  for (const auto& node : ctx.tracer().root().children) {
    spans->AddContextNode(*node, query,
                          node->phase == tempo::Phase::kJoinPartitions
                              ? join_span_id
                              : determine_span_id);
  }
  return trace;
}

StatusOr<std::vector<tempo::Page>> ReadPagesUncharged(
    tempo::StoredRelation* rel) {
  TEMPO_RETURN_IF_ERROR(rel->SetCharged(false));
  std::vector<tempo::Page> pages(rel->num_pages());
  Status st = Status::OK();
  for (uint32_t p = 0; p < pages.size() && st.ok(); ++p) {
    st = rel->ReadPage(p, &pages[p]);
  }
  TEMPO_RETURN_IF_ERROR(rel->SetCharged(true));
  TEMPO_RETURN_IF_ERROR(st);
  return pages;
}

StatusOr<double> DecodeMs(const tempo::Schema& schema,
                          const std::vector<tempo::Page>& pages) {
  tempo::PageTupleArena arena;
  const double start = WallSeconds();
  for (const tempo::Page& page : pages) {
    TEMPO_RETURN_IF_ERROR(
        tempo::StoredRelation::DecodePageViews(schema, page, &arena).status());
  }
  return (WallSeconds() - start) * 1e3;
}

PhaseTotal SumPhase(const tempo::SpanNode& root, tempo::Phase phase) {
  PhaseTotal total;
  for (const auto& child : root.children) SumPhaseInto(*child, phase, &total);
  return total;
}

double BufferHitRatio(const tempo::SpanNode& root) {
  const tempo::BufferCounters c = SumBuffers(root);
  return c.total() == 0 ? 0.0
                        : static_cast<double>(c.hits) /
                              static_cast<double>(c.total());
}

MeanIo MeanIoPerQuery(const std::vector<QuerySample>& samples,
                      const std::vector<double>& shape_weights) {
  MeanIo mean;
  double weight_total = 0.0;
  for (size_t shape = 0; shape < shape_weights.size(); ++shape) {
    for (const QuerySample& s : samples) {
      if (s.shape != shape || !s.ok) continue;
      const double w = shape_weights[shape];
      mean.pages_read += w * static_cast<double>(s.io.random_reads +
                                                 s.io.sequential_reads);
      mean.pages_written += w * static_cast<double>(s.io.random_writes +
                                                    s.io.sequential_writes);
      mean.random_ops += w * static_cast<double>(s.io.total_random());
      weight_total += w;
      break;
    }
  }
  if (weight_total > 0.0) {
    mean.pages_read /= weight_total;
    mean.pages_written /= weight_total;
    mean.random_ops /= weight_total;
  }
  return mean;
}

double SpeedupOf(const std::vector<double>& serial,
                 const std::vector<double>& parallel) {
  if (serial.empty() || parallel.empty()) return 0.0;
  const double p = Median(parallel);
  return p > 0.0 ? Median(serial) / p : 0.0;
}

}  // namespace perfbench
