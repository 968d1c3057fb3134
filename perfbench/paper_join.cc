// paper_join: the paper's Section 4 generator at 1/32 scale, joined by the
// cost-based planner (which picks the partition join) under a buffer of
// 1/8 of each input. The scale keeps at least 200 requests in a 35-second
// run even on a slow host, so the p95 has 10 samples beyond it.

#include "layers.h"
#include "parallel/scheduler.h"
#include "service/join_request.h"
#include "workload/generator.h"
#include "workload/paper_params.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint32_t kScale = 32;
constexpr uint64_t kLongLived = 16000 / kScale;
constexpr uint32_t kBufferPages = 32;  // 128 KiB, 1/8 of each input

tempo::WorkloadSpec PaperSpec(uint64_t seed) {
  tempo::WorkloadSpec spec;
  spec.num_tuples = tempo::paper::kTuplesPerRelation / kScale;
  spec.num_long_lived = kLongLived;
  spec.lifespan = tempo::paper::kLifespan;
  spec.distinct_keys = tempo::paper::kDistinctKeys / kScale;
  spec.tuple_bytes = tempo::paper::kTupleBytes;
  spec.seed = seed;
  return spec;
}

class PaperJoin : public Workload {
 public:
  explicit PaperJoin(uint32_t threads) : threads_(threads) {}

  Status Load(uint64_t seed) override {
    seed_ = seed;
    TEMPO_ASSIGN_OR_RETURN(
        r_, tempo::GenerateRelation(&disk_, PaperSpec(DeriveSeed(seed, 1)),
                                    "r"));
    TEMPO_ASSIGN_OR_RETURN(
        s_, tempo::GenerateRelation(&disk_, PaperSpec(DeriveSeed(seed, 2)),
                                    "s"));
    TEMPO_ASSIGN_OR_RETURN(layout_,
                           tempo::DeriveNaturalJoinLayout(r_->schema(),
                                                          s_->schema()));
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
    // The reference oracle is quadratic (about a minute at 1/4 of the
    // paper's scale); the sort-merge executor is the oracle here, and the
    // benchmark's own test checks it against the reference join.
    JoinOutput out = NewOutput();
    tempo::JoinRequest request = Request();
    request.Using(tempo::JoinExecutor::kSortMerge);
    Status st = tempo::RunJoin(request, out.rel.get()).status();
    StatusOr<Digest> d = st.ok() ? DigestRelation(out.rel.get())
                                 : StatusOr<Digest>(st);
    out.Discard();
    return d;
  }

  StatusOr<QueryReply> Execute(uint32_t, size_t) override {
    return ExecuteWith(scheduler_.get());
  }

  Status Traced(const std::vector<Digest>& expected, double deadline,
                SpanRecorder* spans, LayerMetrics* layers,
                RunResult* result) override {
    tempo::Scheduler serial(tempo::SchedulerConfig{});
    TEMPO_ASSIGN_OR_RETURN(std::vector<tempo::Page> r_pages,
                           ReadPagesUncharged(r_.get()));
    std::vector<double> untraced_ms, traced_ms, decode_ms;
    std::vector<PartitionTrace> parallel, one_thread;
    tempo::IoStats untraced_io;
    uint64_t query = 0;
    auto record = [&](bool ok, const std::string& error) {
      ++result->attempted;
      if (!ok) {
        ++result->failed;
        result->correct = false;
        std::fprintf(stderr, "paper_join: %s\n", error.c_str());
      }
    };
    for (int round = 0; WallSeconds() < deadline; ++round) {
      // Alternate the order so drift on the host hits both sides alike.
      for (int step = 0; step < 3; ++step) {
        const int kind = round % 2 == 0 ? step : 2 - step;
        if (kind == 0) {
          std::string error;
          double unused_cpu = 0.0;
          QuerySample s = RunChecked(0, 0,
                                     [&](uint32_t, size_t) {
                                       return ExecuteWith(scheduler_.get());
                                     },
                                     expected, &error, &unused_cpu);
          record(s.ok, error);
          if (s.ok) untraced_ms.push_back(s.latency_ms());
          if (s.ok) untraced_io = s.io;
          continue;
        }
        tempo::Scheduler* scheduler =
            kind == 1 ? scheduler_.get() : &serial;
        JoinOutput out = NewOutput();
        StatusOr<PartitionTrace> trace = TracedPartitionJoin(
            r_.get(), s_.get(), out.rel.get(), Request().options, scheduler,
            /*plan_first=*/true,
            kind == 1 ? "paper_join query" : "paper_join query (1 thread)",
            ++query, spans);
        std::string error;
        bool ok = trace.ok();
        if (!ok) {
          error = trace.status().ToString();
        } else {
          StatusOr<Digest> d = DigestRelation(out.rel.get());
          ok = d.ok() && *d == expected[0];
          if (!ok) error = "traced output differs from the oracle";
        }
        out.Discard();
        record(ok, error);
        if (!ok) continue;
        (kind == 1 ? parallel : one_thread).push_back(*trace);
        if (kind == 1) traced_ms.push_back(trace->total_ms);
      }
      TEMPO_ASSIGN_OR_RETURN(double ms, DecodeMs(r_->schema(), r_pages));
      decode_ms.push_back(ms);
    }
    // Tracing must not change what the query charges.
    for (const auto* set : {&parallel, &one_thread}) {
      for (const PartitionTrace& t : *set) {
        if (!(t.io == untraced_io)) {
          result->correct = false;
          std::fprintf(stderr, "paper_join: traced I/O %s != untraced %s\n",
                       t.io.ToString().c_str(),
                       untraced_io.ToString().c_str());
        }
      }
    }
    if (parallel.empty() || one_thread.empty() || untraced_ms.empty()) {
      return Status::Internal("paper_join: too few traced runs");
    }
    auto column = [](const std::vector<PartitionTrace>& v,
                     double PartitionTrace::*field) {
      std::vector<double> out;
      for (const PartitionTrace& t : v) out.push_back(t.*field);
      return out;
    };
    const PartitionTrace& any = parallel.front();
    layers->Set("storage.pages_read_per_query",
                static_cast<double>(any.io.random_reads +
                                    any.io.sequential_reads));
    layers->Set("storage.pages_written_per_query",
                static_cast<double>(any.io.random_writes +
                                    any.io.sequential_writes));
    layers->Set("storage.random_io_per_query",
                static_cast<double>(any.io.total_random()));
    layers->Set("storage.buffer_hit_ratio", any.buffer_hit_ratio);
    layers->Set("relation.decode_ms", Median(decode_ms));
    layers->Set("core.plan_ms", Median(column(parallel, &PartitionTrace::plan_ms)));
    layers->Set("core.determine_part_intervals_ms",
                Median(column(parallel, &PartitionTrace::determine_ms)));
    layers->Set("core.grace_partition_ms",
                Median(column(parallel, &PartitionTrace::grace_ms)));
    layers->Set("core.grace_partition_cpu_ms",
                Median(column(parallel, &PartitionTrace::grace_cpu_ms)));
    layers->Set("core.join_partitions_ms",
                Median(column(parallel, &PartitionTrace::join_ms)));
    layers->Set("core.join_partitions_cpu_ms",
                Median(column(parallel, &PartitionTrace::join_cpu_ms)));
    layers->Set("core.cache_pages_spilled", any.cache_pages_spilled);
    layers->Set("sampling.samples_drawn",
                static_cast<double>(any.samples_drawn));
    layers->Set("sampling.io_cost", any.sample_io_cost);
    layers->Set("parallel.speedup.grace_partition",
                SpeedupOf(column(one_thread, &PartitionTrace::grace_ms),
                          column(parallel, &PartitionTrace::grace_ms)));
    layers->Set("parallel.speedup.join_partitions",
                SpeedupOf(column(one_thread, &PartitionTrace::join_ms),
                          column(parallel, &PartitionTrace::join_ms)));
    layers->Set("obs.trace_overhead_frac",
                Median(traced_ms) / Median(untraced_ms) - 1.0);
    return Status::OK();
  }

 private:
  struct JoinOutput {
    std::unique_ptr<tempo::StoredRelation> rel;
    void Discard() {
      if (rel != nullptr) rel->disk()->DeleteFile(rel->file_id()).ok();
      rel.reset();
    }
  };

  JoinOutput NewOutput() {
    JoinOutput out;
    out.rel = std::make_unique<tempo::StoredRelation>(
        &disk_, layout_.output, "out" + std::to_string(next_output_++));
    // The paper omits result writes from every algorithm's cost.
    out.rel->SetCharged(false).ok();
    return out;
  }

  tempo::JoinRequest Request() {
    tempo::JoinRequest request;
    request.From(r_.get(), s_.get())
        .Using(tempo::JoinExecutor::kAuto)
        .BufferPages(kBufferPages)
        .Model(PaperCostModel())
        .Seed(DeriveSeed(seed_, 3));
    return request;
  }

  StatusOr<QueryReply> ExecuteWith(tempo::Scheduler* scheduler) {
    auto out = std::make_shared<JoinOutput>(NewOutput());
    tempo::ExecContext ctx;
    ctx.SetScheduler(scheduler);
    StatusOr<tempo::JoinRunStats> stats =
        tempo::RunJoin(Request(), out->rel.get(), &ctx);
    if (!stats.ok()) {
      out->Discard();
      return stats.status();
    }
    QueryReply reply;
    reply.output = out->rel.get();
    reply.io = stats->io;
    reply.discard = [out] { out->Discard(); };
    return reply;
  }

  tempo::Disk disk_;
  uint64_t seed_ = 0;
  std::unique_ptr<tempo::StoredRelation> r_, s_;
  tempo::NaturalJoinLayout layout_;
  std::unique_ptr<tempo::Scheduler> scheduler_;
  const uint32_t threads_;
  uint64_t next_output_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakePaperJoin(uint32_t threads) {
  return std::make_unique<PaperJoin>(threads);
}

}  // namespace perfbench
