// sequenced_pipeline: one client evaluating a sequenced SPJ pipeline with
// every non-scan node materialized, inputs 8x the buffer.
//
//   Difference(Project(LeftOuterJoin(Select(r), s)), Project(Join(r2, s)))
//
// The joins run on a scheduler of the workload's thread count. Without one,
// the whole pipeline runs on the client's thread, which the kernel keeps on
// one CPU; on a shared host that CPU's speed flips by about 1.5x every few
// seconds with its neighbours' load, so request latencies split into two
// modes and the median jumped between them from run to run.

#include "layers.h"
#include "parallel/scheduler.h"
#include "query/sequenced_exec.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kTuples = 4096;  // 128 pages
constexpr uint32_t kBufferPages = 16;  // 1/8 of each input

tempo::WorkloadSpec Spec(uint64_t seed) {
  tempo::WorkloadSpec spec;
  spec.num_tuples = kTuples;
  spec.num_long_lived = kTuples / 4;
  spec.lifespan = 1000000;
  spec.distinct_keys = kTuples / 10;
  spec.tuple_bytes = 123;
  spec.seed = seed;
  return spec;
}

class SequencedPipeline : public Workload {
 public:
  explicit SequencedPipeline(uint32_t threads) : threads_(threads) {}

  Status Load(uint64_t seed) override {
    seed_ = seed;
    TEMPO_ASSIGN_OR_RETURN(
        r_, GenerateKeyed(&disk_, Spec(DeriveSeed(seed, 1)), "r", "pad"));
    TEMPO_ASSIGN_OR_RETURN(
        s_, GenerateKeyed(&disk_, Spec(DeriveSeed(seed, 2)), "s", "spad"));
    TEMPO_ASSIGN_OR_RETURN(
        r2_, GenerateKeyed(&disk_, Spec(DeriveSeed(seed, 3)), "r2", "pad"));
    return Status::OK();
  }

  Status Start() override {
    tempo::SchedulerConfig config;
    config.num_threads = threads_;
    TEMPO_ASSIGN_OR_RETURN(scheduler_, tempo::Scheduler::Create(config));
    return Status::OK();
  }

  size_t num_shapes() const override { return 1; }
  uint32_t clients() const override { return 1; }

  StatusOr<Digest> ComputeExpected(size_t) override {
    tempo::QueryOptions options = Options();
    options.executor = tempo::JoinExecutor::kReference;
    TEMPO_ASSIGN_OR_RETURN(tempo::QueryResult result,
                           tempo::RunSequencedQuery(Plan(), &disk_, options,
                                                    nullptr, "oracle"));
    StatusOr<Digest> d = DigestRelation(result.relation.get());
    disk_.DeleteFile(result.relation->file_id()).ok();
    return d;
  }

  StatusOr<QueryReply> Execute(uint32_t, size_t) override {
    tempo::ExecContext ctx;
    ctx.SetScheduler(scheduler_.get());
    return Run(&ctx);
  }

  Status Traced(const std::vector<Digest>& expected, double deadline,
                SpanRecorder* spans, LayerMetrics* layers,
                RunResult* result) override;

 private:
  /// Phase timings of one traced pipeline run, from the library's span tree.
  struct PipelineTrace {
    double total_ms = 0.0;
    double select_ms = 0.0;
    double join_ms = 0.0;
    double project_ms = 0.0;
    double difference_ms = 0.0;
    double determine_ms = 0.0;
    double grace_ms = 0.0;
    double join_partitions_ms = 0.0;
    double sort_ms = 0.0;
    double sample_io_cost = 0.0;
    double buffer_hit_ratio = 0.0;
    tempo::IoStats io;
    uint64_t result_pages = 0;
  };

  tempo::QueryPlan Plan() const {
    const int64_t cutoff = static_cast<int64_t>(kTuples / 10 * 3 / 4);
    using tempo::QueryPlan;
    QueryPlan left =
        QueryPlan::Join(QueryPlan::Scan(r_.get()).Select(
                            {"key", tempo::CompareOp::kLt, tempo::Value(cutoff)}),
                        QueryPlan::Scan(s_.get()), tempo::JoinKind::kLeftOuter)
            .Project({"key", "pad"});
    QueryPlan right =
        QueryPlan::Join(QueryPlan::Scan(r2_.get()), QueryPlan::Scan(s_.get()))
            .Project({"key", "pad"});
    return QueryPlan::Difference(std::move(left), std::move(right));
  }

  tempo::QueryOptions Options() const {
    tempo::QueryOptions options;
    options.join.buffer_pages = kBufferPages;
    options.join.cost_model = PaperCostModel();
    options.join.seed = DeriveSeed(seed_, 4);
    options.executor = tempo::JoinExecutor::kAuto;
    return options;
  }

  StatusOr<QueryReply> Run(tempo::ExecContext* ctx) {
    const tempo::IoStats before = disk_.accountant().stats();
    std::string prefix = "q";
    prefix += std::to_string(next_query_++);
    TEMPO_ASSIGN_OR_RETURN(
        tempo::QueryResult result,
        tempo::RunSequencedQuery(Plan(), &disk_, Options(), ctx, prefix));
    QueryReply reply;
    reply.io = disk_.accountant().stats() - before;
    reply.output = result.relation.get();
    std::shared_ptr<tempo::StoredRelation> owned(std::move(result.relation));
    reply.discard = [owned] {
      owned->disk()->DeleteFile(owned->file_id()).ok();
    };
    return reply;
  }

  tempo::Disk disk_;
  uint64_t seed_ = 0;
  std::unique_ptr<tempo::StoredRelation> r_, s_, r2_;
  std::unique_ptr<tempo::Scheduler> scheduler_;
  const uint32_t threads_;
  uint64_t next_query_ = 0;
};

Status SequencedPipeline::Traced(const std::vector<Digest>& expected,
                                 double deadline, SpanRecorder* spans,
                                 LayerMetrics* layers, RunResult* result) {
  tempo::Scheduler serial(tempo::SchedulerConfig{});
  tempo::IoAccountant* acct = &disk_.accountant();
  TEMPO_ASSIGN_OR_RETURN(std::vector<tempo::Page> decode_pages,
                         ReadPagesUncharged(r_.get()));
  std::vector<double> untraced_ms, decode_ms;
  std::vector<PipelineTrace> traces, one_thread;
  tempo::IoStats untraced_io;
  uint64_t query = 0;
  auto record = [&](bool ok, const std::string& error) {
    ++result->attempted;
    if (!ok) {
      ++result->failed;
      result->correct = false;
      std::fprintf(stderr, "sequenced_pipeline: %s\n", error.c_str());
    }
  };

  for (int round = 0; WallSeconds() < deadline; ++round) {
    for (int step = 0; step < 3; ++step) {
      const int kind = round % 2 == 0 ? step : 2 - step;
      std::string error;
      double unused_cpu = 0.0;
      if (kind == 0) {
        QuerySample s = RunChecked(
            0, 0, [&](uint32_t c, size_t sh) { return Execute(c, sh); },
            expected, &error, &unused_cpu);
        record(s.ok, error);
        if (s.ok) {
          untraced_ms.push_back(s.latency_ms());
          untraced_io = s.io;
        }
        continue;
      }
      // Traced: the library's span tree, on the workload's scheduler or on
      // a one-thread scheduler.
      tempo::ExecContext ctx;
      ctx.SetScheduler(kind == 1 ? scheduler_.get() : &serial);
      PipelineTrace trace;
      ++query;
      uint64_t span_id = 0;
      QuerySample s = RunChecked(
          0, 0,
          [&](uint32_t, size_t) -> StatusOr<QueryReply> {
            SpanRecorder::Scope span = spans->Open(
                kind == 1 ? "RunSequencedQuery"
                          : "RunSequencedQuery (1-thread scheduler)",
                query, 0, acct);
            span_id = span.id();
            StatusOr<QueryReply> reply = Run(&ctx);
            trace.total_ms = span.End() * 1e3;
            if (reply.ok()) trace.result_pages = reply->output->num_pages();
            return reply;
          },
          expected, &error, &unused_cpu);
      // Tracing must not change what the query charges.
      if (s.ok && !untraced_ms.empty() && !(s.io == untraced_io)) {
        s.ok = false;
        error = "traced I/O differs from the untraced run";
      }
      record(s.ok, error);
      if (!s.ok) continue;
      const tempo::SpanNode& root = ctx.tracer().root();
      for (const auto& node : root.children) {
        spans->AddContextNode(*node, query, span_id);
      }
      trace.io = s.io;
      trace.select_ms = SumPhase(root, tempo::Phase::kQuerySelect).seconds * 1e3;
      trace.join_ms = SumPhase(root, tempo::Phase::kQueryJoin).seconds * 1e3;
      trace.project_ms =
          SumPhase(root, tempo::Phase::kQueryProject).seconds * 1e3;
      trace.difference_ms =
          SumPhase(root, tempo::Phase::kQueryDifference).seconds * 1e3;
      trace.determine_ms =
          SumPhase(root, tempo::Phase::kChooseIntervals).seconds * 1e3;
      trace.grace_ms = (SumPhase(root, tempo::Phase::kPartitionR).seconds +
                        SumPhase(root, tempo::Phase::kPartitionS).seconds) *
                       1e3;
      trace.join_partitions_ms =
          SumPhase(root, tempo::Phase::kJoinPartitions).seconds * 1e3;
      trace.sort_ms = (SumPhase(root, tempo::Phase::kSortR).seconds +
                       SumPhase(root, tempo::Phase::kSortS).seconds) *
                      1e3;
      trace.sample_io_cost =
          SumPhase(root, tempo::Phase::kSampling).io.Cost(PaperCostModel());
      trace.buffer_hit_ratio = BufferHitRatio(root);
      (kind == 1 ? traces : one_thread).push_back(trace);
    }
    TEMPO_ASSIGN_OR_RETURN(double ms, DecodeMs(r_->schema(), decode_pages));
    decode_ms.push_back(ms);
  }
  if (traces.empty() || one_thread.empty() || untraced_ms.empty()) {
    return Status::Internal("sequenced_pipeline: too few traced runs");
  }

  auto column = [](const std::vector<PipelineTrace>& v,
                   double PipelineTrace::*field) {
    std::vector<double> out;
    for (const PipelineTrace& t : v) out.push_back(t.*field);
    return out;
  };
  const PipelineTrace& any = traces.front();
  const uint64_t written = any.io.random_writes + any.io.sequential_writes;
  layers->Set("storage.pages_read_per_query",
              static_cast<double>(any.io.random_reads +
                                  any.io.sequential_reads));
  layers->Set("storage.pages_written_per_query", static_cast<double>(written));
  layers->Set("storage.random_io_per_query",
              static_cast<double>(any.io.total_random()));
  layers->Set("storage.buffer_hit_ratio", any.buffer_hit_ratio);
  layers->Set("relation.decode_ms", Median(decode_ms));
  layers->Set("core.determine_part_intervals_ms",
              Median(column(traces, &PipelineTrace::determine_ms)));
  layers->Set("core.grace_partition_ms",
              Median(column(traces, &PipelineTrace::grace_ms)));
  layers->Set("core.join_partitions_ms",
              Median(column(traces, &PipelineTrace::join_partitions_ms)));
  layers->Set("sampling.io_cost", any.sample_io_cost);
  layers->Set("join.external_sort_ms",
              Median(column(traces, &PipelineTrace::sort_ms)));
  layers->Set("parallel.speedup.grace_partition",
              SpeedupOf(column(one_thread, &PipelineTrace::grace_ms),
                        column(traces, &PipelineTrace::grace_ms)));
  layers->Set("parallel.speedup.join_partitions",
              SpeedupOf(column(one_thread, &PipelineTrace::join_partitions_ms),
                        column(traces, &PipelineTrace::join_partitions_ms)));
  layers->Set("parallel.speedup.external_sort",
              SpeedupOf(column(one_thread, &PipelineTrace::sort_ms),
                        column(traces, &PipelineTrace::sort_ms)));
  layers->Set("query.select_ms", Median(column(traces, &PipelineTrace::select_ms)));
  layers->Set("query.join_ms", Median(column(traces, &PipelineTrace::join_ms)));
  layers->Set("query.project_ms",
              Median(column(traces, &PipelineTrace::project_ms)));
  layers->Set("query.difference_ms",
              Median(column(traces, &PipelineTrace::difference_ms)));
  layers->Set("query.intermediate_pages_written",
              static_cast<double>(written - any.result_pages));
  layers->Set("obs.trace_overhead_frac",
              Median(column(traces, &PipelineTrace::total_ms)) /
                      Median(untraced_ms) -
                  1.0);
  return Status::OK();
}

}  // namespace

std::unique_ptr<Workload> MakeSequencedPipeline(uint32_t threads) {
  return std::make_unique<SequencedPipeline>(threads);
}

}  // namespace perfbench
