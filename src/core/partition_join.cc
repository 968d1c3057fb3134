#include "core/partition_join.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "core/tuple_cache.h"
#include "temporal/interval_set.h"

namespace tempo {

namespace {

// Conservative per-record page overhead used to convert the outer-area
// page budget into bytes.
constexpr size_t kSlotOverhead = 4;
constexpr size_t kPagePayload = kPageSize - 4;

/// Emits the uncovered subintervals of a retiring outer-area tuple:
/// SubtractAll of the accumulated coverage from the tuple's validity,
/// one output row per uncovered subinterval. Anti rows carry x itself
/// (r's own schema); outer rows are NULL-padded into the join schema.
Status EmitUncovered(JoinVariant* v, const Tuple& x,
                     const std::vector<Interval>& covered) {
  const IntervalSet uncovered = SubtractAll(x.interval(), covered);
  if (uncovered.empty()) return Status::OK();
  ++v->unmatched_tuples;
  for (const Interval& iv : uncovered.intervals()) {
    ++v->uncovered_subintervals;
    Tuple t = v->kind == JoinKind::kAnti
                  ? MakeAntiTuple(x, iv)
                  : MakeUnmatchedTuple(*v->emit_layout, v->preserved_is_r, x,
                                       iv);
    TEMPO_RETURN_IF_ERROR(v->writer->EmitAssembled(t));
  }
  return Status::OK();
}

/// The outer partition area: decoded tuples plus byte accounting, with a
/// probe index over the current contents. The index tracks a dirty flag so
/// a partition that neither purged nor added tuples (an empty r_i under
/// migration) skips the full rebuild.
///
/// Under a sequenced outer/anti variant the area additionally carries, per
/// tuple, the intervals its key-matching partners covered; a tuple leaving
/// the area (purge, or RetireAll at the end of the run) passes through
/// EmitUncovered before being dropped.
class OuterArea {
 public:
  explicit OuterArea(const std::vector<size_t>* key_attrs)
      : index_(&tuples_, key_attrs) {}

  /// Turns on per-tuple coverage tracking and unmatched emission.
  void TrackCoverage(JoinVariant* variant) { variant_ = variant; }

  Status Clear() {
    if (variant_ != nullptr) TEMPO_RETURN_IF_ERROR(RetireAll());
    if (!tuples_.empty()) dirty_ = true;
    tuples_.clear();
    coverage_.clear();
    bytes_ = 0;
    return Status::OK();
  }

  Status PurgeNotOverlapping(const Interval& p) {
    size_t kept = 0;
    for (size_t i = 0; i < tuples_.size(); ++i) {
      if (tuples_[i].interval().Overlaps(p)) {
        if (kept != i) {
          tuples_[kept] = std::move(tuples_[i]);
          if (variant_ != nullptr) coverage_[kept] = std::move(coverage_[i]);
        }
        ++kept;
      } else if (variant_ != nullptr) {
        TEMPO_RETURN_IF_ERROR(
            EmitUncovered(variant_, tuples_[i], coverage_[i]));
      }
    }
    if (kept != tuples_.size()) dirty_ = true;
    tuples_.resize(kept);
    if (variant_ != nullptr) coverage_.resize(kept);
    return Status::OK();
  }

  /// Retires every remaining tuple (end of the partition loop / fast
  /// path): emits each one's uncovered subintervals.
  Status RetireAll() {
    if (variant_ == nullptr) return Status::OK();
    for (size_t i = 0; i < tuples_.size(); ++i) {
      TEMPO_RETURN_IF_ERROR(EmitUncovered(variant_, tuples_[i], coverage_[i]));
    }
    coverage_.assign(tuples_.size(), {});
    return Status::OK();
  }

  void Add(Tuple t, const Schema& schema) {
    bytes_ += t.SerializedSize(schema) + kSlotOverhead;
    tuples_.push_back(std::move(t));
    if (variant_ != nullptr) coverage_.emplace_back();
    dirty_ = true;
  }

  /// Folds one key-matching overlap into tuple `i`'s coverage. Called only
  /// by the coordinating thread (serial probes inline; parallel probes
  /// buffer per batch and fold at wave flush).
  void AddCoverage(size_t i, const Interval& overlap) {
    coverage_[i].push_back(overlap);
  }

  void RecomputeBytes(const Schema& schema) {
    bytes_ = 0;
    for (const Tuple& t : tuples_) {
      bytes_ += t.SerializedSize(schema) + kSlotOverhead;
    }
  }

  /// Rebuilds the probe index if the area changed since the last rebuild.
  void RebuildIndex() {
    if (!dirty_) return;
    index_.Rebuild(&tuples_);
    dirty_ = false;
  }

  const std::vector<Tuple>& tuples() const { return tuples_; }
  size_t bytes() const { return bytes_; }
  HashedTupleIndex& index() { return index_; }

 private:
  std::vector<Tuple> tuples_;
  size_t bytes_ = 0;
  HashedTupleIndex index_;
  // The index is built over an empty area at construction, so it starts
  // clean.
  bool dirty_ = false;
  // Non-null while a sequenced outer/anti variant is running; coverage_
  // then parallels tuples_ (the raw overlap intervals seen so far).
  JoinVariant* variant_ = nullptr;
  std::vector<std::vector<Interval>> coverage_;
};

/// Shared parameters of one probe pass (one chunk of one partition).
struct ProbeContext {
  const NaturalJoinLayout* layout = nullptr;
  const Schema* inner_schema = nullptr;
  TemporalPredicate predicate;
  /// De-duplication partition p_i: emit only pairs whose overlap ends in
  /// it. Null in the single-partition fast path (no duplicates possible).
  const Interval* dedup_interval = nullptr;
  /// Previous partition p_{i-1}; probe tuples overlapping it are retained
  /// into `retain_cache`. Null disables retention.
  const Interval* retain_interval = nullptr;
  ResultWriter* writer = nullptr;
  TupleCache* retain_cache = nullptr;
  /// Sequenced outer/anti variant of this run (null = inner join). When
  /// set, every dedup-accepted overlap is folded into `coverage_area`'s
  /// per-tuple coverage at index `coverage_base + build_index`, and match
  /// emission is gated on variant->emit_matches.
  JoinVariant* variant = nullptr;
  OuterArea* coverage_area = nullptr;
  size_t coverage_base = 0;  ///< chunk offset into the outer area
};

/// Invokes `fn(x, build_index, overlap)` for every pair the probe record
/// view `y` must emit, in index iteration order (deterministic for a fixed
/// index build — the view hashes bit-compatibly with the tuple it would
/// decode into, so the bucket walk matches the owning-tuple probe
/// exactly). `build_index` is x's position in the indexed tuple vector;
/// the outer/anti variants use it to attribute coverage.
template <typename Fn>
void ForEachEmission(const ProbeContext& ctx, const HashedTupleIndex& index,
                     const TupleView& y, Fn&& fn) {
  const Interval y_iv = y.interval();
  index.ForEachMatchIndexed(
      y, ctx.layout->s_join_attrs, [&](const Tuple& x, size_t idx) {
        auto common = Overlap(x.interval(), y_iv);
        if (!common) return;
        if (ctx.dedup_interval != nullptr &&
            !ctx.dedup_interval->Contains(common->end())) {
          return;
        }
        if (!PredicateAdmitsOverlapping(ctx.predicate, x.interval(), y_iv)) {
          return;
        }
        fn(x, idx, *common);
      });
}

/// Streams probe-side input — raw inner pages and tuple-cache views —
/// against a read-only hash index. Every probe runs on a zero-copy
/// TupleView: pages are pinned in a PageTupleArena and their records
/// hashed/compared in place; cache records are probed as views over the
/// cache's own memory. Owning Tuples are materialized only for emitted
/// results (and as serialized bytes for retained records).
///
/// Serial mode (no pool): each batch is viewed and probed inline, in
/// arrival order, emitting directly — byte-for-byte the original
/// tuple-at-a-time loop.
///
/// Parallel mode: the coordinator keeps reading pages (all charged I/O
/// stays on the calling thread, in stream order) while accumulated batches
/// fan out to pool workers, which pin pages into a per-worker arena, probe
/// views, and buffer assembled result tuples. After each wave the
/// coordinator appends the per-batch buffers in batch order, so the output
/// relation and the next cache generation receive tuples in exactly the
/// serial order.
class ProbeStream {
 public:
  ProbeStream(const ProbeContext& ctx, const HashedTupleIndex* index,
              ThreadPool* pool, const ParallelOptions& parallel,
              MorselStats* stats)
      : ctx_(ctx), index_(index), pool_(pool), stats_(stats) {
    if (pool_ != nullptr && parallel.enabled()) {
      batch_pages_ = std::max<uint32_t>(1, parallel.morsel_pages);
      wave_limit_ = std::max<size_t>(1, 4 * parallel.num_threads);
    }
  }

  ProbeStream(const ProbeStream&) = delete;
  ProbeStream& operator=(const ProbeStream&) = delete;

  /// Streams one raw inner page (pinned and viewed on a worker in parallel
  /// mode).
  Status AddPage(const Page& page, bool allow_retain) {
    views_probed_ += page.num_records();
    if (wave_limit_ == 0) {
      arena_.Clear();
      TEMPO_RETURN_IF_ERROR(
          StoredRelation::DecodePageViews(*ctx_.inner_schema, page, &arena_)
              .status());
      for (const TupleView& y : arena_.views()) {
        TEMPO_RETURN_IF_ERROR(ProbeOneSerial(y, allow_retain));
      }
      return Status::OK();
    }
    if (!wave_.empty() && wave_.back().views.empty() &&
        wave_.back().allow_retain == allow_retain &&
        wave_.back().pages.size() < batch_pages_) {
      wave_.back().pages.push_back(page);
      return Status::OK();
    }
    Batch b;
    b.pages.push_back(page);
    b.allow_retain = allow_retain;
    return PushBatch(std::move(b));
  }

  /// Streams probe views over storage that outlives the stream (the tuple
  /// cache's in-memory records).
  Status AddViews(const std::vector<TupleView>& views, bool allow_retain) {
    views_probed_ += views.size();
    if (wave_limit_ == 0) {
      for (const TupleView& y : views) {
        TEMPO_RETURN_IF_ERROR(ProbeOneSerial(y, allow_retain));
      }
      return Status::OK();
    }
    Batch b;
    b.views = views;
    b.allow_retain = allow_retain;
    return PushBatch(std::move(b));
  }

  /// Drains any pending parallel wave. Must be called before destruction.
  Status Finish() { return FlushWave(); }

  /// Records probed as views (no owning decode); feeds the
  /// decode_materializations_avoided metric.
  uint64_t views_probed() const { return views_probed_; }

 private:
  struct Batch {
    std::vector<Page> pages;      // raw pages, pinned+viewed on the worker…
    std::vector<TupleView> views;  // …or views into stable cache memory
    bool allow_retain = false;
  };
  struct BatchResult {
    std::vector<Tuple> results;  // assembled output tuples, emission order
    // Raw record bytes for the next cache generation (views into the
    // worker's arena die with the wave, so the bytes are copied out).
    std::vector<std::string> retained;
    // Variant runs: (build index, overlap) per dedup-accepted pair. The
    // coordinator folds these into the outer area's coverage at wave
    // flush — workers never touch shared coverage state.
    std::vector<std::pair<size_t, Interval>> covered;
  };

  bool WantsRetention(const TupleView& y, bool allow_retain) const {
    return allow_retain && ctx_.retain_cache != nullptr &&
           ctx_.retain_interval != nullptr &&
           y.interval().Overlaps(*ctx_.retain_interval);
  }

  bool EmitsMatches() const {
    return ctx_.variant == nullptr || ctx_.variant->emit_matches;
  }

  Status ProbeOneSerial(const TupleView& y, bool allow_retain) {
    Status status = Status::OK();
    ForEachEmission(ctx_, *index_, y,
                    [&](const Tuple& x, size_t idx, const Interval& common) {
                      if (!status.ok()) return;
                      if (ctx_.coverage_area != nullptr) {
                        ctx_.coverage_area->AddCoverage(
                            ctx_.coverage_base + idx, common);
                      }
                      if (!EmitsMatches()) return;
                      status = ctx_.writer->Emit(*ctx_.layout, x, y, common);
                    });
    TEMPO_RETURN_IF_ERROR(status);
    if (WantsRetention(y, allow_retain)) {
      TEMPO_RETURN_IF_ERROR(ctx_.retain_cache->AddRecord(y.record()));
    }
    return Status::OK();
  }

  Status PushBatch(Batch b) {
    wave_.push_back(std::move(b));
    if (wave_.size() >= wave_limit_) return FlushWave();
    return Status::OK();
  }

  /// Worker side: pin+view (if needed) and probe one batch into `out`.
  Status ProbeBatchWorker(const Batch& b, BatchResult* out) const {
    thread_local PageTupleArena arena;
    const std::vector<TupleView>* src = &b.views;
    if (!b.pages.empty()) {
      arena.Clear();
      for (const Page& p : b.pages) {
        TEMPO_RETURN_IF_ERROR(
            StoredRelation::DecodePageViews(*ctx_.inner_schema, p, &arena)
                .status());
      }
      src = &arena.views();
    }
    for (const TupleView& y : *src) {
      ForEachEmission(ctx_, *index_, y,
                      [&](const Tuple& x, size_t idx, const Interval& common) {
                        if (ctx_.coverage_area != nullptr) {
                          out->covered.emplace_back(idx, common);
                        }
                        if (!EmitsMatches()) return;
                        out->results.push_back(
                            MakeJoinTuple(*ctx_.layout, x, y, common));
                      });
      if (WantsRetention(y, b.allow_retain)) {
        out->retained.emplace_back(y.record());
      }
    }
    return Status::OK();
  }

  Status FlushWave() {
    if (wave_.empty()) return Status::OK();
    std::vector<BatchResult> results(wave_.size());
    Status st = ParallelFor(
        pool_, wave_.size(), 1,
        [&](size_t m, size_t begin, size_t end) -> Status {
          (void)end;
          (void)m;
          return ProbeBatchWorker(wave_[begin], &results[begin]);
        },
        stats_);
    TEMPO_RETURN_IF_ERROR(st);
    for (BatchResult& r : results) {
      for (const auto& [idx, overlap] : r.covered) {
        ctx_.coverage_area->AddCoverage(ctx_.coverage_base + idx, overlap);
      }
      for (const Tuple& t : r.results) {
        TEMPO_RETURN_IF_ERROR(ctx_.writer->EmitAssembled(t));
      }
      for (const std::string& rec : r.retained) {
        TEMPO_RETURN_IF_ERROR(ctx_.retain_cache->AddRecord(rec));
      }
    }
    wave_.clear();
    return Status::OK();
  }

  ProbeContext ctx_;
  const HashedTupleIndex* index_;
  ThreadPool* pool_;
  MorselStats* stats_;
  uint32_t batch_pages_ = 1;
  size_t wave_limit_ = 0;  // 0 = serial
  std::vector<Batch> wave_;
  PageTupleArena arena_;  // serial pin+view arena, cleared per page
  uint64_t views_probed_ = 0;
};

}  // namespace

StatusOr<JoinRunStats> JoinPartitions(const NaturalJoinLayout& layout,
                                      const PartitionSpec& spec,
                                      PartitionedRelation* pr,
                                      PartitionedRelation* ps,
                                      StoredRelation* out,
                                      uint32_t buffer_pages,
                                      PlacementPolicy placement,
                                      TemporalPredicate predicate,
                                      uint32_t cache_memory_pages,
                                      ExecContext* ctx,
                                      MorselStats* morsel_stats,
                                      JoinVariant* variant) {
  const size_t n = spec.num_partitions();
  if (pr->parts.size() != n || ps->parts.size() != n) {
    return Status::InvalidArgument(
        "partitioned relations do not match the partition spec");
  }
  if (buffer_pages < 4) {
    return Status::InvalidArgument(
        "joinPartitions needs at least 4 buffer pages");
  }
  Scheduler* scheduler = SchedulerOf(ctx);
  const ParallelOptions parallel = SchedulerParallel(scheduler);
  ThreadPool* pool = SchedulerPool(scheduler);
  Disk* disk = out->disk();
  IoAccountant& acct = disk->accountant();
  IoStats before = acct.stats();
  TraceSpan join_span = SpanIf(ctx, Phase::kJoinPartitions);

  const Schema& r_schema = pr->parts.empty() ? out->schema()
                                             : pr->parts[0]->schema();
  const Schema& s_schema = ps->parts.empty() ? out->schema()
                                             : ps->parts[0]->schema();
  if (cache_memory_pages == 0) cache_memory_pages = 1;
  // Figure 3 layout: one inner page, one result page, cache_memory_pages
  // for the tuple cache (normally 1), and the rest is partition area.
  const uint32_t reserved = 2 + cache_memory_pages;
  const size_t area_bytes =
      static_cast<size_t>(
          buffer_pages > reserved ? buffer_pages - reserved : 1) *
      kPagePayload;
  const bool migrate = placement == PlacementPolicy::kLastOverlap;

  // Variant passes share the caller's canonical writer (the full outer
  // feeds two passes into one writer); the caller finishes it.
  ResultWriter local_writer(out);
  ResultWriter* writer = variant != nullptr ? variant->writer : &local_writer;
  OuterArea outer(&layout.r_join_attrs);
  if (variant != nullptr) outer.TrackCoverage(variant);
  TupleCache cache(disk, s_schema, out->name() + ".gen",
                   cache_memory_pages);  // consumed generation
  uint64_t cache_pages_spilled = 0;
  uint64_t cache_tuples = 0;
  uint64_t overflow_chunks = 0;
  uint64_t views_probed = 0;
  MorselStats probe_stats;

  // Computation proceeds from r_n |X| s_n down to r_1 |X| s_1. The
  // generation loop is inherently sequential — partition i's cache
  // generation feeds partition i-1 — so parallelism lives *inside* each
  // partition: page decode and hash probe fan out across the pool while
  // this coordinator performs all I/O in the paper's order.
  for (size_t ii = n; ii-- > 0;) {
    const Interval& p_i = spec.partition(ii);
    const bool has_prev = ii > 0;
    const Interval* p_prev = has_prev ? &spec.partition(ii - 1) : nullptr;

    // 1. Purge retained outer tuples that do not overlap p_i, then read
    //    the physical partition r_i into the area.
    if (migrate) {
      TEMPO_RETURN_IF_ERROR(outer.PurgeNotOverlapping(p_i));
      outer.RecomputeBytes(r_schema);
    } else {
      // Replicated partitions are self-contained (variants require
      // last-overlap placement, so no coverage retires here).
      TEMPO_RETURN_IF_ERROR(outer.Clear());
    }
    {
      StoredRelation* part = pr->parts[ii].get();
      const uint32_t pages = part->num_pages();
      std::vector<Tuple> decoded;
      for (uint32_t p = 0; p < pages; ++p) {
        Page page;
        TEMPO_RETURN_IF_ERROR(part->ReadPage(p, &page));
        decoded.clear();
        TEMPO_RETURN_IF_ERROR(
            StoredRelation::DecodePageAppend(r_schema, page, &decoded)
                .status());
        for (Tuple& t : decoded) outer.Add(std::move(t), r_schema);
      }
    }

    // Overflow handling: process the outer area in memory-sized chunks;
    // each chunk beyond the first re-reads the inner inputs (thrashing).
    const size_t total = outer.tuples().size();
    size_t chunk_tuples = total;
    if (outer.bytes() > area_bytes && total > 0) {
      double avg = static_cast<double>(outer.bytes()) / total;
      chunk_tuples = std::max<size_t>(
          1, static_cast<size_t>(static_cast<double>(area_bytes) / avg));
    }

    TupleCache next_gen(disk, s_schema,
                        out->name() + ".gen" + std::to_string(ii),
                        cache_memory_pages);

    for (size_t chunk_start = 0; chunk_start < std::max<size_t>(total, 1);
         chunk_start += std::max<size_t>(chunk_tuples, 1)) {
      const bool first_chunk = chunk_start == 0;
      if (!first_chunk) ++overflow_chunks;
      // Chunk view: rebuild the index over [chunk_start, chunk_end).
      std::vector<Tuple> chunk_vec;
      HashedTupleIndex* index = &outer.index();
      HashedTupleIndex chunk_index(&chunk_vec, &layout.r_join_attrs);
      if (chunk_tuples < total) {
        size_t chunk_end = std::min(total, chunk_start + chunk_tuples);
        chunk_vec.assign(outer.tuples().begin() + chunk_start,
                         outer.tuples().begin() + chunk_end);
        chunk_index.Rebuild(&chunk_vec);
        index = &chunk_index;
      } else {
        outer.RebuildIndex();  // no-op when the area is unchanged
      }

      ProbeContext probe_ctx;
      probe_ctx.layout = &layout;
      probe_ctx.inner_schema = &s_schema;
      probe_ctx.predicate = predicate;
      probe_ctx.dedup_interval = &p_i;
      probe_ctx.retain_interval = p_prev;
      probe_ctx.writer = writer;
      probe_ctx.retain_cache = &next_gen;
      if (variant != nullptr) {
        probe_ctx.variant = variant;
        probe_ctx.coverage_area = &outer;
        probe_ctx.coverage_base = chunk_start;
      }
      ProbeStream stream(probe_ctx, index, pool, parallel, &probe_stats);

      // 2. Join with the in-memory cache page of the consumed generation,
      //    probing its records in place.
      const bool retain = first_chunk && has_prev;
      if (migrate) {
        TEMPO_RETURN_IF_ERROR(stream.AddViews(cache.memory_views(), retain));
        // 3. Join with each spilled page of the consumed generation (read
        //    raw; records are viewed, never decoded).
        for (uint32_t c = 0; c < cache.spilled_pages(); ++c) {
          Page cached;
          TEMPO_RETURN_IF_ERROR(cache.ReadSpilledPageRaw(c, &cached));
          TEMPO_RETURN_IF_ERROR(stream.AddPage(cached, retain));
        }
      }

      // 4. Join with each page of s_i.
      {
        StoredRelation* part = ps->parts[ii].get();
        const uint32_t pages = part->num_pages();
        for (uint32_t p = 0; p < pages; ++p) {
          Page page;
          TEMPO_RETURN_IF_ERROR(part->ReadPage(p, &page));
          TEMPO_RETURN_IF_ERROR(stream.AddPage(page, migrate && retain));
        }
      }
      TEMPO_RETURN_IF_ERROR(stream.Finish());
      views_probed += stream.views_probed();
      if (total == 0) break;
    }

    cache_pages_spilled += next_gen.spilled_pages();
    cache_tuples += next_gen.num_tuples();
    RecordHistogram(ctx, Hist::kCacheOccupancyTuples,
                    static_cast<double>(next_gen.num_tuples()));
    TEMPO_RETURN_IF_ERROR(cache.Discard());
    cache = std::move(next_gen);
  }
  TEMPO_RETURN_IF_ERROR(cache.Discard());
  // Tuples still in the area saw every partition they overlap; retire
  // them (unmatched emission) before the caller finishes the writer.
  TEMPO_RETURN_IF_ERROR(outer.RetireAll());
  if (variant == nullptr) TEMPO_RETURN_IF_ERROR(writer->Finish());

  JoinRunStats stats;
  stats.io = acct.stats() - before;
  stats.output_tuples = writer->count();
  stats.Set(Metric::kCachePagesSpilled,
            static_cast<double>(cache_pages_spilled));
  stats.Set(Metric::kCacheTuples, static_cast<double>(cache_tuples));
  stats.Set(Metric::kOverflowChunks, static_cast<double>(overflow_chunks));
  stats.Set(Metric::kDecodeMaterializationsAvoided,
            static_cast<double>(views_probed));
  if (parallel.enabled()) {
    stats.Set(Metric::kMorselsDispatched,
              static_cast<double>(probe_stats.morsels_dispatched));
    stats.Set(Metric::kParallelEfficiency,
              probe_stats.Efficiency(parallel.num_threads));
  }
  join_span.AddMorsels(probe_stats);
  MergeHistogram(ctx, Hist::kMorselDurationUs, probe_stats.duration_hist);
  if (morsel_stats != nullptr) morsel_stats->Merge(probe_stats);
  ExportMetrics(stats, ctx);
  return stats;
}

namespace {

/// One full partition-executor pass — plan, (maybe) Grace partition, join —
/// over (r, s) with r as the build/outer side. `layout` is the natural-join
/// layout of (r, s) *as passed*: the swapped full-outer pass hands in the
/// (s, r) layout. Output-schema validation is the caller's job.
StatusOr<JoinRunStats> RunPartitionPass(StoredRelation* r, StoredRelation* s,
                                        StoredRelation* out,
                                        const NaturalJoinLayout& layout,
                                        const PartitionJoinOptions& options,
                                        ExecContext* ctx,
                                        JoinVariant* variant) {
  if (options.buffer_pages < 4) {
    return Status::InvalidArgument(
        "partition join needs at least 4 buffer pages");
  }
  Disk* disk = r->disk();
  IoAccountant& acct = disk->accountant();
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&acct);
  }
  IoStats before = acct.stats();
  TraceSpan root_span = SpanIf(ctx, Phase::kPartitionJoin);
  Random rng(options.seed);

  Scheduler* scheduler = SchedulerOf(ctx);
  const ParallelOptions parallel = SchedulerParallel(scheduler);
  ThreadPool* pool = SchedulerPool(scheduler);
  MorselStats total_morsels;

  // Phase 1: determine the partitioning intervals (samples are charged).
  PartitionPlanOptions plan_options;
  plan_options.buffer_pages = options.buffer_pages;
  plan_options.cost_model = options.cost_model;
  plan_options.kolmogorov_critical = options.kolmogorov_critical;
  plan_options.in_scan_sampling = options.in_scan_sampling;
  plan_options.forced_num_partitions = options.forced_num_partitions;
  StatusOr<PartitionPlan> plan_or = Status::Internal("unset");
  {
    TraceSpan plan_span = SpanIf(ctx, Phase::kChooseIntervals);
    plan_or = DeterminePartIntervals(r, plan_options, &rng, ctx);
  }
  TEMPO_RETURN_IF_ERROR(plan_or.status());
  PartitionPlan plan = std::move(plan_or).value();
  if (ctx != nullptr) {
    // The optimizer's cost split maps onto the span tree: C_sample onto
    // the sampling phase, C_join onto joinPartitions (which re-reads the
    // partitions and pages the tuple cache), their sum onto the root.
    ctx->AnnotateEstimate(Phase::kSampling, plan.est_sample_cost);
    ctx->AnnotateEstimate(Phase::kJoinPartitions, plan.est_join_cost);
    root_span.SetEstimate(plan.est_sample_cost + plan.est_join_cost);
  }

  JoinRunStats stats;
  if (plan.num_partitions <= 1) {
    // The outer relation fits in the partition area: no partitioning I/O;
    // read r into memory and stream s past it.
    TraceSpan fast_span = SpanIf(ctx, Phase::kJoinPartitions);
    OuterArea outer(&layout.r_join_attrs);
    if (variant != nullptr) outer.TrackCoverage(variant);
    const uint32_t pages = r->num_pages();
    std::vector<Tuple> decoded;
    for (uint32_t p = 0; p < pages; ++p) {
      Page page;
      TEMPO_RETURN_IF_ERROR(r->ReadPage(p, &page));
      decoded.clear();
      TEMPO_RETURN_IF_ERROR(
          StoredRelation::DecodePageAppend(r->schema(), page, &decoded)
              .status());
      for (Tuple& t : decoded) outer.Add(std::move(t), r->schema());
    }
    outer.RebuildIndex();
    ResultWriter local_writer(out);
    ResultWriter* writer =
        variant != nullptr ? variant->writer : &local_writer;

    ProbeContext probe_ctx;
    probe_ctx.layout = &layout;
    probe_ctx.inner_schema = &s->schema();
    probe_ctx.predicate = options.predicate;
    probe_ctx.writer = writer;
    if (variant != nullptr) {
      probe_ctx.variant = variant;
      probe_ctx.coverage_area = &outer;
    }
    ProbeStream stream(probe_ctx, &outer.index(), pool, parallel,
                       &total_morsels);
    const uint32_t s_pages = s->num_pages();
    for (uint32_t p = 0; p < s_pages; ++p) {
      Page page;
      TEMPO_RETURN_IF_ERROR(s->ReadPage(p, &page));
      TEMPO_RETURN_IF_ERROR(stream.AddPage(page, /*allow_retain=*/false));
    }
    TEMPO_RETURN_IF_ERROR(stream.Finish());
    TEMPO_RETURN_IF_ERROR(outer.RetireAll());
    if (variant == nullptr) TEMPO_RETURN_IF_ERROR(writer->Finish());
    fast_span.AddMorsels(total_morsels);
    stats.output_tuples = writer->count();
    stats.Set(Metric::kDecodeMaterializationsAvoided,
              static_cast<double>(stream.views_probed()));
  } else {
    // Phase 2: Grace-partition both inputs with the same intervals. With a
    // pool, r and s are partitioned concurrently — each input has its own
    // coordinating thread reading its pages in scan order and its own
    // output files, so charged per-file I/O is unchanged — and each
    // coordinator fans decode/route morsels across the shared workers.
    StatusOr<PartitionedRelation> pr_or = Status::Internal("unset");
    StatusOr<PartitionedRelation> ps_or = Status::Internal("unset");
    MorselStats r_morsels, s_morsels;
    if (pool != nullptr) {
      // The r coordinator runs on a spawned thread whose span stack is
      // empty, so its span names the partition-join root as parent
      // explicitly; the tree shape matches the serial run. The thread also
      // re-binds this query's per-thread accountant (if one is bound):
      // r's charged I/O must land on the same per-query ledger as the
      // coordinator's, not on the disk's base accountant.
      IoAccountant* bound = disk->BoundAccountant();
      MorselProgress* progress = ScopedMorselProgress::Current();
      std::thread r_thread([&, bound, progress] {
        ScopedAccountantBinding rebind(disk, bound);
        // Like the accountant, the query's live morsel counter is a
        // per-thread binding: rebind it so r's regions count toward the
        // same query's Progress().
        ScopedMorselProgress reprogress(progress);
        TraceSpan r_span =
            SpanUnderIf(ctx, root_span, Phase::kPartitionR);
        pr_or = GracePartition(r, plan.spec, options.buffer_pages,
                               options.placement, r->name(), scheduler,
                               &r_morsels);
        r_span.AddMorsels(r_morsels);
      });
      {
        TraceSpan s_span = SpanIf(ctx, Phase::kPartitionS);
        ps_or = GracePartition(s, plan.spec, options.buffer_pages,
                               options.placement, s->name(), scheduler,
                               &s_morsels);
        s_span.AddMorsels(s_morsels);
      }
      r_thread.join();
    } else {
      {
        TraceSpan r_span = SpanIf(ctx, Phase::kPartitionR);
        pr_or = GracePartition(r, plan.spec, options.buffer_pages,
                               options.placement, r->name());
      }
      TraceSpan s_span = SpanIf(ctx, Phase::kPartitionS);
      ps_or = GracePartition(s, plan.spec, options.buffer_pages,
                             options.placement, s->name());
    }
    TEMPO_RETURN_IF_ERROR(pr_or.status());
    TEMPO_RETURN_IF_ERROR(ps_or.status());
    PartitionedRelation pr = std::move(pr_or).value();
    PartitionedRelation ps = std::move(ps_or).value();
    total_morsels.Merge(r_morsels);
    total_morsels.Merge(s_morsels);
    stats.Set(Metric::kPartitionPagesWritten,
              static_cast<double>(pr.TotalPages() + ps.TotalPages()));
    stats.Set(Metric::kTuplesWritten,
              static_cast<double>(pr.tuples_written + ps.tuples_written));

    // Phase 3: join corresponding partitions.
    TEMPO_ASSIGN_OR_RETURN(
        JoinRunStats join_stats,
        JoinPartitions(layout, plan.spec, &pr, &ps, out, options.buffer_pages,
                       options.placement, options.predicate,
                       options.tuple_cache_memory_pages, ctx,
                       &total_morsels, variant));
    stats.output_tuples = join_stats.output_tuples;
    stats.metrics.Merge(join_stats.metrics);
    stats.Add(Metric::kDecodeMaterializationsAvoided,
              static_cast<double>(pr.records_routed_zero_copy +
                                  ps.records_routed_zero_copy));
    pr.Drop();
    ps.Drop();
  }

  stats.io = acct.stats() - before;
  stats.Set(Metric::kPartitions, static_cast<double>(plan.num_partitions));
  stats.Set(Metric::kPartSizePages,
            static_cast<double>(plan.part_size_pages));
  stats.Set(Metric::kSamples, static_cast<double>(plan.samples_drawn));
  stats.Set(Metric::kSampledByScan, plan.sampled_by_scan ? 1.0 : 0.0);
  stats.Set(Metric::kEstSampleCost, plan.est_sample_cost);
  stats.Set(Metric::kEstJoinCost, plan.est_join_cost);
  if (parallel.enabled()) {
    stats.Set(Metric::kMorselsDispatched,
              static_cast<double>(total_morsels.morsels_dispatched));
    stats.Set(Metric::kParallelEfficiency,
              total_morsels.Efficiency(parallel.num_threads));
  }
  ExportMetrics(stats, ctx);
  return stats;
}

}  // namespace

StatusOr<JoinRunStats> PartitionVtJoin(StoredRelation* r, StoredRelation* s,
                                       StoredRelation* out,
                                       const PartitionJoinOptions& options,
                                       ExecContext* ctx) {
  TEMPO_RETURN_IF_ERROR(ValidateExecOptions(JoinExecutor::kPartition, options));
  if (options.join_kind == JoinKind::kInner) {
    TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout, PrepareJoin(r, s, out));
    return RunPartitionPass(r, s, out, layout, options, ctx, nullptr);
  }

  // Sequenced outer/anti variant. The uncovered-subinterval arithmetic
  // assumes every key-matching overlap is observed exactly once, which the
  // dedup rule guarantees only under last-overlap placement (and the plain
  // overlap predicate, which ValidateExecOptions requires).
  if (options.placement != PlacementPolicy::kLastOverlap) {
    return Status::InvalidArgument(
        "outer/anti join variants require last-overlap placement");
  }
  TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout,
                         PrepareJoinForKind(r, s, out, options.join_kind));
  Disk* disk = r->disk();
  IoAccountant& acct = disk->accountant();
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&acct);
  }
  IoStats before = acct.stats();

  // One canonical writer across all passes: emission is buffered and
  // sorted at Finish, so output bytes are a pure function of the result
  // multiset — identical for any thread count and for the oracle.
  ResultWriter writer = ResultWriter::Canonical(out);
  JoinVariant pass1;
  pass1.kind = options.join_kind;
  pass1.emit_matches = options.join_kind != JoinKind::kAnti;
  pass1.preserved_is_r = true;
  pass1.emit_layout = &layout;
  pass1.writer = &writer;
  TEMPO_ASSIGN_OR_RETURN(
      JoinRunStats stats,
      RunPartitionPass(r, s, out, layout, options, ctx, &pass1));
  uint64_t unmatched = pass1.unmatched_tuples;
  uint64_t uncovered = pass1.uncovered_subintervals;

  if (options.join_kind == JoinKind::kFullOuter) {
    // Second pass, swapped: s becomes the outer side in coverage-only mode
    // (all matches were emitted by pass 1), contributing s's unmatched
    // rows — assembled under the ORIGINAL layout — to the shared writer.
    TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout swapped,
                           DeriveNaturalJoinLayout(s->schema(), r->schema()));
    TraceSpan outer_span = SpanIf(ctx, Phase::kOuterPass);
    JoinVariant pass2;
    pass2.kind = options.join_kind;
    pass2.emit_matches = false;
    pass2.preserved_is_r = false;
    pass2.emit_layout = &layout;
    pass2.writer = &writer;
    TEMPO_ASSIGN_OR_RETURN(
        JoinRunStats pass2_stats,
        RunPartitionPass(s, r, out, swapped, options, ctx, &pass2));
    stats.metrics.Merge(pass2_stats.metrics);
    unmatched += pass2.unmatched_tuples;
    uncovered += pass2.uncovered_subintervals;
  }

  TEMPO_RETURN_IF_ERROR(writer.Finish());
  stats.io = acct.stats() - before;
  stats.output_tuples = writer.count();
  stats.Set(Metric::kSequencedJoinKind,
            static_cast<double>(static_cast<uint8_t>(options.join_kind)));
  stats.Set(Metric::kOuterUnmatchedTuples, static_cast<double>(unmatched));
  stats.Set(Metric::kUncoveredSubintervalsEmitted,
            static_cast<double>(uncovered));
  if (options.join_kind == JoinKind::kAnti) {
    stats.Set(Metric::kAntiEmittedIntervals, static_cast<double>(uncovered));
  }
  ExportMetrics(stats, ctx);
  return stats;
}

}  // namespace tempo
