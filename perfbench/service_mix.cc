// service_mix: one QueryService in the process, four closed-loop sessions,
// four scheduler threads, and a shared pool that admits two 64-page
// reservations at a time, so requests queue for admission.

#include <atomic>
#include <numeric>
#include <thread>

#include "core/planner.h"
#include "core/radix_join.h"
#include "join/external_sort.h"
#include "join/sweep_join.h"
#include "layers.h"
#include "service/query_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint32_t kClients = 4;
constexpr uint32_t kQueryPages = 64;
constexpr uint64_t kSmallTuples = 4096;   // 128 pages
constexpr uint64_t kLargeTuples = 16384;  // 512 pages
constexpr uint64_t kRadixBudget = 64ull << 20;
constexpr double kWindowSeconds = 2.0;

// Request shapes: one radix-sized kAuto join, then the four shapes over the
// large relations.
enum Shape : size_t {
  kRadix,
  kPartition,
  kSweep,
  kSweepMeets,
  kLeftOuter,
  kNumShapes,
};
const char* const kShapeNames[kNumShapes] = {
    "radix", "partition", "sweep", "sweep meets|met-by", "left-outer"};

tempo::WorkloadSpec Spec(uint64_t tuples, uint64_t seed) {
  tempo::WorkloadSpec spec;
  spec.num_tuples = tuples;
  spec.num_long_lived = tuples / 16;
  spec.lifespan = 1000000;
  spec.distinct_keys = tuples / 10;
  spec.tuple_bytes = 123;
  spec.seed = seed;
  return spec;
}

class ServiceMix : public Workload {
 public:
  explicit ServiceMix(uint32_t threads) : threads_(threads) {}
  ~ServiceMix() override {
    sessions_.clear();
    service_.reset();
  }

  Status Load(uint64_t seed) override {
    seed_ = seed;
    TEMPO_ASSIGN_OR_RETURN(
        r_small_, GenerateKeyed(&disk_, Spec(kSmallTuples, DeriveSeed(seed, 1)),
                                "r_small", "pad"));
    TEMPO_ASSIGN_OR_RETURN(
        s_small_, GenerateKeyed(&disk_, Spec(kSmallTuples, DeriveSeed(seed, 2)),
                                "s_small", "spad"));
    TEMPO_ASSIGN_OR_RETURN(
        r_large_, GenerateKeyed(&disk_, Spec(kLargeTuples, DeriveSeed(seed, 3)),
                                "r_large", "pad"));
    TEMPO_ASSIGN_OR_RETURN(
        s_large_, GenerateKeyed(&disk_, Spec(kLargeTuples, DeriveSeed(seed, 4)),
                                "s_large", "spad"));
    return Status::OK();
  }

  Status Start() override {
    tempo::QueryServiceOptions options;
    options.pool_pages = 2 * kQueryPages;
    options.scheduler.num_threads = threads_;
    TEMPO_ASSIGN_OR_RETURN(service_,
                           tempo::QueryService::Create(&disk_, options));
    for (tempo::StoredRelation* rel :
         {r_small_.get(), s_small_.get(), r_large_.get(), s_large_.get()}) {
      TEMPO_RETURN_IF_ERROR(service_->Register(rel));
    }
    for (uint32_t c = 0; c < kClients; ++c) {
      sessions_.push_back(
          std::make_unique<tempo::Session>(service_->OpenSession()));
    }
    return Status::OK();
  }

  size_t num_shapes() const override { return kNumShapes; }
  uint32_t clients() const override { return kClients; }

  StatusOr<Digest> ComputeExpected(size_t shape) override {
    tempo::JoinRequest request = Request(shape);
    request.Using(tempo::JoinExecutor::kReference);
    std::unique_ptr<tempo::StoredRelation> out = NewOutput(request);
    Status st = tempo::RunJoin(request, out.get()).status();
    StatusOr<Digest> d =
        st.ok() ? DigestRelation(out.get()) : StatusOr<Digest>(st);
    disk_.DeleteFile(out->file_id()).ok();
    return d;
  }

  StatusOr<QueryReply> Execute(uint32_t client, size_t shape) override {
    TEMPO_ASSIGN_OR_RETURN(std::unique_ptr<tempo::QueryHandle> handle,
                           sessions_[client]->Submit(Request(shape)));
    if (Status st = handle->Wait(); !st.ok()) {
      disk_.DeleteFile(handle->output()->file_id()).ok();
      return st;
    }
    QueryReply reply;
    reply.output = handle->output();
    reply.io = handle->stats().io;
    reply.admission_wait_ms = handle->admission_wait_us() / 1e3;
    reply.query_id = handle->query_id();
    std::shared_ptr<tempo::QueryHandle> owned(std::move(handle));
    reply.discard = [owned] {
      owned->output()->disk()->DeleteFile(owned->output()->file_id()).ok();
    };
    return reply;
  }

  Status Traced(const std::vector<Digest>& expected, double deadline,
                SpanRecorder* spans, LayerMetrics* layers,
                RunResult* result) override;

 private:
  /// Timings of one pass of direct library calls over the request shapes.
  struct LayerPass {
    double plan_ms = 0.0;
    double radix_ms = 0.0;
    bool radix_picked = false;
    bool radix_fell_back = false;
    PartitionTrace partition;
    double sort_ms = 0.0;
    double sort_cpu_ms = 0.0;
    double sweep_ms = 0.0;
    double sweep_active_peak = 0.0;
  };

  tempo::JoinRequest Request(size_t shape) const {
    tempo::JoinRequest request;
    if (shape == kRadix) {
      request.From(r_small_.get(), s_small_.get())
          .Using(tempo::JoinExecutor::kAuto)
          .RadixBudgetBytes(kRadixBudget);
    } else {
      request.From(r_large_.get(), s_large_.get());
    }
    switch (shape) {
      case kPartition:
        request.Using(tempo::JoinExecutor::kPartition);
        break;
      case kSweep:
        request.Using(tempo::JoinExecutor::kSweep);
        break;
      case kSweepMeets:
        request.Using(tempo::JoinExecutor::kSweep)
            .Predicate(*tempo::TemporalPredicate::Parse("meets|met-by"));
        break;
      case kLeftOuter:
        request.Using(tempo::JoinExecutor::kAuto)
            .Kind(tempo::JoinKind::kLeftOuter);
        break;
      default:
        break;
    }
    request.BufferPages(kQueryPages)
        .Model(PaperCostModel())
        .Seed(DeriveSeed(seed_, 10 + shape));
    return request;
  }

  std::unique_ptr<tempo::StoredRelation> NewOutput(
      const tempo::JoinRequest& request) {
    tempo::Schema schema = request.r->schema();
    auto layout = tempo::DeriveNaturalJoinLayout(request.r->schema(),
                                                 request.s->schema());
    if (layout.ok()) schema = layout->output;
    return std::make_unique<tempo::StoredRelation>(
        &disk_, schema, "direct" + std::to_string(next_output_++));
  }

  StatusOr<LayerPass> RunLayerPass(tempo::Scheduler* scheduler,
                                   const std::vector<Digest>& expected,
                                   const std::string& suffix, uint64_t query,
                                   SpanRecorder* spans);

  tempo::Disk disk_;
  uint64_t seed_ = 0;
  std::unique_ptr<tempo::StoredRelation> r_small_, s_small_, r_large_,
      s_large_;
  std::unique_ptr<tempo::QueryService> service_;
  std::vector<std::unique_ptr<tempo::Session>> sessions_;
  const uint32_t threads_;
  uint64_t next_output_ = 0;
};

StatusOr<ServiceMix::LayerPass> ServiceMix::RunLayerPass(
    tempo::Scheduler* scheduler, const std::vector<Digest>& expected,
    const std::string& suffix, uint64_t query, SpanRecorder* spans) {
  tempo::IoAccountant* acct = &disk_.accountant();
  LayerPass pass;
  auto check = [&](tempo::StoredRelation* out, size_t shape) -> Status {
    StatusOr<Digest> d = DigestRelation(out);
    disk_.DeleteFile(out->file_id()).ok();
    TEMPO_RETURN_IF_ERROR(d.status());
    if (!(*d == expected[shape])) {
      return Status::Internal(std::string("direct ") + kShapeNames[shape] +
                              " output differs from the oracle");
    }
    return Status::OK();
  };

  {  // The radix-sized request, as ExecuteVtJoin runs it.
    tempo::JoinRequest request = Request(kRadix);
    std::unique_ptr<tempo::StoredRelation> out = NewOutput(request);
    SpanRecorder::Scope root =
        spans->Open("radix request" + suffix, query, 0, acct);
    tempo::JoinPlan plan;
    {
      SpanRecorder::Scope span =
          spans->Open("PlanVtJoin", query, root.id(), acct);
      plan = tempo::PlanVtJoin(request.r, request.s, request.options);
      pass.plan_ms = span.End() * 1e3;
    }
    tempo::ExecContext ctx;
    ctx.SetScheduler(scheduler);
    ctx.BindAccountant(acct);
    pass.radix_picked = plan.algorithm == tempo::JoinAlgorithm::kInMemoryRadix;
    if (pass.radix_picked) {
      tempo::RadixJoinOptions rj;
      static_cast<tempo::ExecOptions&>(rj) = request.options;
      SpanRecorder::Scope span =
          spans->Open("RadixVtJoin", query, root.id(), acct);
      Status st = tempo::RadixVtJoin(request.r, request.s, out.get(), rj, &ctx)
                      .status();
      pass.radix_ms = span.End() * 1e3;
      for (const auto& node : ctx.tracer().root().children) {
        spans->AddContextNode(*node, query, span.id());
      }
      if (st.code() == tempo::StatusCode::kResourceExhausted) {
        // What ExecuteVtJoin does after a mid-extract budget overrun.
        pass.radix_fell_back = true;
        TEMPO_RETURN_IF_ERROR(out->Clear());
        request.Using(tempo::JoinExecutor::kPartition);
        st = tempo::RunJoin(request, out.get(), &ctx).status();
      }
      TEMPO_RETURN_IF_ERROR(st);
    } else {
      TEMPO_RETURN_IF_ERROR(tempo::RunJoin(request, out.get(), &ctx).status());
    }
    TEMPO_RETURN_IF_ERROR(check(out.get(), kRadix));
  }

  {  // The partition request, phase by phase.
    tempo::JoinRequest request = Request(kPartition);
    std::unique_ptr<tempo::StoredRelation> out = NewOutput(request);
    StatusOr<PartitionTrace> trace = TracedPartitionJoin(
        request.r, request.s, out.get(), request.options, scheduler,
        /*plan_first=*/false, "partition request" + suffix, query, spans);
    if (!trace.ok()) disk_.DeleteFile(out->file_id()).ok();
    TEMPO_RETURN_IF_ERROR(trace.status());
    pass.partition = *trace;
    TEMPO_RETURN_IF_ERROR(check(out.get(), kPartition));
  }

  {  // The sweep request: both sorts on their own, then the sweep join.
    tempo::JoinRequest request = Request(kSweep);
    SpanRecorder::Scope root =
        spans->Open("sweep request" + suffix, query, 0, acct);
    const double sort_start = WallSeconds();
    const double sort_cpu_start = ProcessCpuSeconds();
    for (tempo::StoredRelation* input : {request.r, request.s}) {
      SpanRecorder::Scope span = spans->Open(
          "ExternalSortByVs " + input->name(), query, root.id(), acct);
      StatusOr<tempo::SortedRelation> sorted = tempo::ExternalSortByVs(
          input, kQueryPages, input->name() + ".sorted", scheduler);
      TEMPO_RETURN_IF_ERROR(sorted.status());
      disk_.DeleteFile(sorted->relation->file_id()).ok();
    }
    pass.sort_ms = (WallSeconds() - sort_start) * 1e3;
    pass.sort_cpu_ms = (ProcessCpuSeconds() - sort_cpu_start) * 1e3;
    std::unique_ptr<tempo::StoredRelation> out = NewOutput(request);
    tempo::ExecContext ctx;
    ctx.SetScheduler(scheduler);
    ctx.BindAccountant(acct);
    SpanRecorder::Scope span =
        spans->Open("SweepVtJoin", query, root.id(), acct);
    StatusOr<tempo::JoinRunStats> stats = tempo::SweepVtJoin(
        request.r, request.s, out.get(), request.options, &ctx);
    pass.sweep_ms = span.End() * 1e3;
    for (const auto& node : ctx.tracer().root().children) {
      spans->AddContextNode(*node, query, span.id());
    }
    if (!stats.ok()) disk_.DeleteFile(out->file_id()).ok();
    TEMPO_RETURN_IF_ERROR(stats.status());
    pass.sweep_active_peak = stats->Get(tempo::Metric::kSweepActivePeak);
    TEMPO_RETURN_IF_ERROR(check(out.get(), kSweep));
  }
  return pass;
}

Status ServiceMix::Traced(const std::vector<Digest>& expected, double deadline,
                          SpanRecorder* spans, LayerMetrics* layers,
                          RunResult* result) {
  tempo::Scheduler serial(tempo::SchedulerConfig{});
  TEMPO_ASSIGN_OR_RETURN(std::vector<tempo::Page> decode_pages,
                         ReadPagesUncharged(r_large_.get()));
  std::vector<std::vector<size_t>> cycles;
  for (uint32_t c = 0; c < kClients; ++c) {
    cycles.push_back(ShuffledCycle(kNumShapes, DeriveSeed(seed_, 100 + c)));
  }
  auto count = [&](const LoopStats& loop) {
    result->attempted += loop.samples.size();
    result->failed += loop.mismatches;
    if (loop.mismatches > 0) result->correct = false;
    for (const std::string& e : loop.errors) {
      std::fprintf(stderr, "service_mix: %s\n", e.c_str());
    }
  };

  const ExecuteFn untraced = [&](uint32_t c, size_t shape) {
    return Execute(c, shape);
  };
  const ExecuteFn traced =
      [&](uint32_t c, size_t shape) -> StatusOr<QueryReply> {
    SpanRecorder::Scope span =
        spans->Open(std::string("Submit..Wait ") + kShapeNames[shape], 0);
    StatusOr<QueryReply> reply = Execute(c, shape);
    if (reply.ok()) {
      span.SetIo(reply->io);
      span.SetQuery(reply->query_id);
    }
    return reply;
  };

  std::vector<QuerySample> untraced_samples, traced_samples;
  std::vector<LayerPass> parallel, one_thread;
  std::vector<double> decode_ms, occupancy;
  uint64_t query = 1u << 20;  // ids above the service's own query ids
  for (int round = 0; WallSeconds() < deadline; ++round) {
    for (int step = 0; step < 2; ++step) {
      const bool trace_window = (round + step) % 2 == 1;
      const double window_end =
          std::min(deadline, WallSeconds() + kWindowSeconds);
      std::atomic<bool> stop{false};
      std::thread poller;
      if (trace_window) {
        poller = std::thread([&] {
          while (!stop.load()) {
            const tempo::GaugeSnapshot g = service_->SampleGauges();
            const double total = g.Get(tempo::Gauge::kPoolPagesTotal);
            if (total > 0.0) {
              occupancy.push_back(
                  (total - g.Get(tempo::Gauge::kPoolPagesAvailable)) / total);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        });
      }
      LoopStats loop = RunClosedLoop(kClients, cycles,
                                     trace_window ? traced : untraced,
                                     expected, window_end);
      stop.store(true);
      if (poller.joinable()) poller.join();
      count(loop);
      auto& into = trace_window ? traced_samples : untraced_samples;
      into.insert(into.end(), loop.samples.begin(), loop.samples.end());
    }
    for (int step = 0; step < 2; ++step) {
      const bool one = (round + step) % 2 == 1;
      ++result->attempted;
      StatusOr<LayerPass> pass =
          RunLayerPass(one ? &serial : service_->scheduler(), expected,
                       one ? " (1 thread)" : "", ++query, spans);
      if (!pass.ok()) {
        ++result->failed;
        result->correct = false;
        std::fprintf(stderr, "service_mix: %s\n",
                     pass.status().ToString().c_str());
        continue;
      }
      (one ? one_thread : parallel).push_back(*pass);
    }
    TEMPO_ASSIGN_OR_RETURN(double ms,
                           DecodeMs(r_large_->schema(), decode_pages));
    decode_ms.push_back(ms);
  }
  if (parallel.empty() || one_thread.empty() || traced_samples.empty() ||
      untraced_samples.empty()) {
    return Status::Internal("service_mix: too few traced runs");
  }

  auto column = [](const std::vector<LayerPass>& v, auto field) {
    std::vector<double> out;
    for (const LayerPass& p : v) out.push_back(field(p));
    return out;
  };
  auto latencies = [](const std::vector<QuerySample>& samples) {
    std::vector<double> out;
    for (const QuerySample& s : samples) {
      if (s.ok) out.push_back(s.latency_ms());
    }
    return out;
  };
  std::vector<double> waits, execs;
  for (const QuerySample& s : traced_samples) {
    if (!s.ok) continue;
    waits.push_back(s.admission_wait_ms);
    execs.push_back(s.latency_ms() - s.admission_wait_ms);
  }
  std::vector<QuerySample> all = untraced_samples;
  all.insert(all.end(), traced_samples.begin(), traced_samples.end());
  const MeanIo io =
      MeanIoPerQuery(all, std::vector<double>(kNumShapes, 1.0));
  double picks = 0.0, fallbacks = 0.0, active_peak = 0.0;
  for (const auto* set : {&parallel, &one_thread}) {
    for (const LayerPass& p : *set) {
      picks += p.radix_picked ? 1.0 : 0.0;
      fallbacks += p.radix_fell_back ? 1.0 : 0.0;
      active_peak = std::max(active_peak, p.sweep_active_peak);
    }
  }
  const PartitionTrace& part = parallel.front().partition;
  layers->Set("storage.pages_read_per_query", io.pages_read);
  layers->Set("storage.pages_written_per_query", io.pages_written);
  layers->Set("storage.random_io_per_query", io.random_ops);
  layers->Set("storage.buffer_hit_ratio", part.buffer_hit_ratio);
  layers->Set("relation.decode_ms", Median(decode_ms));
  layers->Set("core.plan_ms",
              Median(column(parallel, [](auto& p) { return p.plan_ms; })));
  layers->Set("core.determine_part_intervals_ms",
              Median(column(parallel, [](auto& p) {
                return p.partition.determine_ms;
              })));
  auto grace = [](auto& p) { return p.partition.grace_ms; };
  auto join = [](auto& p) { return p.partition.join_ms; };
  auto sort = [](auto& p) { return p.sort_ms; };
  auto radix = [](auto& p) { return p.radix_ms; };
  layers->Set("core.grace_partition_ms", Median(column(parallel, grace)));
  layers->Set("core.grace_partition_cpu_ms",
              Median(column(parallel, [](auto& p) {
                return p.partition.grace_cpu_ms;
              })));
  layers->Set("core.join_partitions_ms", Median(column(parallel, join)));
  layers->Set("core.join_partitions_cpu_ms",
              Median(column(parallel, [](auto& p) {
                return p.partition.join_cpu_ms;
              })));
  layers->Set("core.cache_pages_spilled", part.cache_pages_spilled);
  layers->Set("core.radix_join_ms", Median(column(parallel, radix)));
  layers->Set("core.radix_fallback_frac", picks > 0 ? fallbacks / picks : 0.0);
  layers->Set("sampling.samples_drawn",
              static_cast<double>(part.samples_drawn));
  layers->Set("sampling.io_cost", part.sample_io_cost);
  layers->Set("join.external_sort_ms", Median(column(parallel, sort)));
  layers->Set("join.external_sort_cpu_ms",
              Median(column(parallel, [](auto& p) { return p.sort_cpu_ms; })));
  layers->Set("join.sweep_join_ms",
              Median(column(parallel, [](auto& p) { return p.sweep_ms; })));
  layers->Set("join.sweep_active_peak", active_peak);
  layers->Set("parallel.speedup.grace_partition",
              SpeedupOf(column(one_thread, grace), column(parallel, grace)));
  layers->Set("parallel.speedup.join_partitions",
              SpeedupOf(column(one_thread, join), column(parallel, join)));
  layers->Set("parallel.speedup.external_sort",
              SpeedupOf(column(one_thread, sort), column(parallel, sort)));
  layers->Set("parallel.speedup.radix_join",
              SpeedupOf(column(one_thread, radix), column(parallel, radix)));
  layers->Set("service.admission_wait_ms_p50", Quantile(waits, 0.5));
  layers->Set("service.admission_wait_ms_p95", Quantile(waits, 0.95));
  layers->Set("service.exec_ms_p50", Quantile(execs, 0.5));
  layers->Set("service.queue_peak",
              service_->SnapshotMetrics().Get(
                  tempo::Metric::kAdmissionQueuePeak));
  layers->Set("service.pool_occupancy_mean",
              occupancy.empty()
                  ? 0.0
                  : std::accumulate(occupancy.begin(), occupancy.end(), 0.0) /
                        static_cast<double>(occupancy.size()));
  layers->Set("obs.trace_overhead_frac",
              Median(latencies(traced_samples)) /
                      Median(latencies(untraced_samples)) -
                  1.0);
  return Status::OK();
}

}  // namespace

std::unique_ptr<Workload> MakeServiceMix(uint32_t threads) {
  return std::make_unique<ServiceMix>(threads);
}

}  // namespace perfbench
