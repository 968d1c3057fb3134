#include "join/sweep_join.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "join/external_sort.h"

namespace tempo {

namespace {

/// Zero-copy sequential cursor over a sorted relation: reads
/// `chunk_pages` consecutive pages per refill (1 random + (c-1)
/// sequential I/Os), pins them, and exposes each record as a TupleView
/// into the pinned page bytes. Views stay valid until the next refill —
/// exactly the window the sweep needs, since an arrival is probed and
/// materialized before its stream advances.
class ViewStream {
 public:
  ViewStream(StoredRelation* rel, uint32_t chunk_pages)
      : rel_(rel),
        layout_(&rel->schema().layout()),
        chunk_pages_(std::max<uint32_t>(1, chunk_pages)) {
    pages_.reserve(chunk_pages_);
  }

  bool Exhausted() const { return exhausted_; }
  const TupleView& Head() const { return views_[pos_]; }

  /// Loads the first chunk. Must be called once before use.
  Status Prime() { return RefillIfNeeded(); }

  /// Consumes the head record.
  Status Pop() {
    ++pos_;
    return RefillIfNeeded();
  }

 private:
  Status RefillIfNeeded() {
    if (pos_ < views_.size()) return Status::OK();
    views_.clear();
    pages_.clear();
    pos_ = 0;
    uint32_t end = std::min(rel_->num_pages(), next_page_ + chunk_pages_);
    if (next_page_ >= end) {
      exhausted_ = true;
      return Status::OK();
    }
    for (; next_page_ < end; ++next_page_) {
      pages_.emplace_back();
      TEMPO_RETURN_IF_ERROR(rel_->ReadPage(next_page_, &pages_.back()));
    }
    for (const Page& page : pages_) {
      for (uint16_t slot = 0; slot < page.num_records(); ++slot) {
        std::string_view rec = page.GetRecord(slot);
        TEMPO_ASSIGN_OR_RETURN(
            TupleView v, TupleView::Make(*layout_, rec.data(), rec.size()));
        views_.push_back(v);
      }
    }
    return Status::OK();
  }

  StoredRelation* rel_;
  const RecordLayout* layout_;
  uint32_t chunk_pages_;
  uint32_t next_page_ = 0;
  bool exhausted_ = false;
  std::vector<Page> pages_;  // never reallocates: reserved to chunk size
  std::vector<TupleView> views_;
  size_t pos_ = 0;
};

/// One side's active tuples as a gapless append log in structure-of-arrays
/// layout: `ends_[i]`, `hashes_[i]` and `tuples_[i]` describe the i-th
/// arrival that has not been compacted away. Probes walk a hash bucket of
/// indices and consult the flat end array first, so the common miss
/// (expired entry) costs one contiguous load; expired indices are
/// swap-removed from the bucket as they are passed over. A global
/// compaction rebuilds the log (preserving append order) only when more
/// than half of it is dead, keeping it gapless without per-expiry
/// bookkeeping.
class GaplessActiveMap {
 public:
  explicit GaplessActiveMap(const std::vector<size_t>* key_attrs)
      : key_attrs_(key_attrs) {}

  /// Appends an arrival. `hash` must be the tuple's HashAttrs over this
  /// side's key positions (computed on the zero-copy view by the caller).
  void Insert(Tuple&& t, size_t hash) {
    const uint32_t idx = static_cast<uint32_t>(tuples_.size());
    ends_.push_back(t.interval().end());
    hashes_.push_back(hash);
    tuples_.push_back(std::move(t));
    buckets_[hash].push_back(idx);
    expiry_.push(std::make_pair(ends_.back(), idx));
    ++appends_;
    peak_ = std::max(peak_, Live());
  }

  /// Updates liveness accounting for the sweep position (entries with
  /// end < `expire_bound` are dead) and compacts when the append log is
  /// more than half dead.
  void ExpireTo(Chronon expire_bound) {
    while (!expiry_.empty() && expiry_.top().first < expire_bound) {
      expiry_.pop();
      ++dead_;
    }
    if (tuples_.size() >= 64 && dead_ * 2 > tuples_.size()) {
      Compact(expire_bound);
    }
  }

  /// Calls fn(const Tuple&) for every live entry (end >= `expire_bound`)
  /// matching `probe` on the aligned key positions. `visited` counts the
  /// live candidates inspected.
  template <typename Fn>
  void ForEachCandidate(const TupleView& probe,
                        const std::vector<size_t>& probe_attrs,
                        Chronon expire_bound, uint64_t* visited, Fn&& fn) {
    size_t h = probe.HashAttrs(probe_attrs);
    auto it = buckets_.find(h);
    if (it == buckets_.end()) return;
    auto& vec = it->second;
    for (size_t i = 0; i < vec.size();) {
      const uint32_t idx = vec[i];
      if (ends_[idx] < expire_bound) {
        vec[i] = vec.back();
        vec.pop_back();
        continue;
      }
      ++*visited;
      if (probe.EqualOnAttrs(probe_attrs, *key_attrs_, tuples_[idx])) {
        fn(tuples_[idx]);
      }
      ++i;
    }
    if (vec.empty()) buckets_.erase(it);
  }

  uint64_t Live() const { return tuples_.size() - dead_; }
  uint64_t peak() const { return peak_; }
  uint64_t appends() const { return appends_; }
  uint64_t compactions() const { return compactions_; }

 private:
  void Compact(Chronon expire_bound) {
    std::vector<Chronon> ends;
    std::vector<size_t> hashes;
    std::vector<Tuple> tuples;
    const size_t live = Live();
    ends.reserve(live);
    hashes.reserve(live);
    tuples.reserve(live);
    for (size_t i = 0; i < tuples_.size(); ++i) {
      if (ends_[i] < expire_bound) continue;
      ends.push_back(ends_[i]);
      hashes.push_back(hashes_[i]);
      tuples.push_back(std::move(tuples_[i]));
    }
    ends_ = std::move(ends);
    hashes_ = std::move(hashes);
    tuples_ = std::move(tuples);
    buckets_.clear();
    std::vector<std::pair<Chronon, uint32_t>> heap;
    heap.reserve(ends_.size());
    for (uint32_t i = 0; i < ends_.size(); ++i) {
      buckets_[hashes_[i]].push_back(i);
      heap.emplace_back(ends_[i], i);
    }
    expiry_ = ExpiryHeap(ExpiryHeap::value_compare(), std::move(heap));
    dead_ = 0;
    ++compactions_;
  }

  using ExpiryHeap =
      std::priority_queue<std::pair<Chronon, uint32_t>,
                          std::vector<std::pair<Chronon, uint32_t>>,
                          std::greater<>>;

  const std::vector<size_t>* key_attrs_;
  std::vector<Chronon> ends_;
  std::vector<size_t> hashes_;
  std::vector<Tuple> tuples_;
  std::unordered_map<size_t, std::vector<uint32_t>> buckets_;
  ExpiryHeap expiry_;  // (end, idx) min-heap driving the dead_ count
  size_t dead_ = 0;
  uint64_t peak_ = 0;
  uint64_t appends_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace

StatusOr<JoinRunStats> SweepVtJoin(StoredRelation* r, StoredRelation* s,
                                   StoredRelation* out,
                                   const ExecOptions& options,
                                   ExecContext* ctx) {
  TEMPO_RETURN_IF_ERROR(ValidateExecOptions(JoinExecutor::kSweep, options));
  TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout, PrepareJoin(r, s, out));
  if (options.buffer_pages < 4) {
    return Status::InvalidArgument(
        "sweep join needs at least 4 buffer pages");
  }
  const TemporalPredicate pred = options.predicate;
  Disk* disk = r->disk();
  IoAccountant& acct = disk->accountant();
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&acct);
  }
  IoStats before = acct.stats();
  TraceSpan exec_span = SpanIf(ctx, Phase::kSweepJoin);

  // --- Phase 1: sort both inputs by (Vs, Ve). --------------------------
  // ExternalSortByVs's parallel run formation is charged-I/O-identical to
  // the serial pass, so everything downstream of here — and hence the
  // whole run — is byte- and charge-invariant over thread counts.
  Scheduler* scheduler = SchedulerOf(ctx);
  const ParallelOptions parallel = SchedulerParallel(scheduler);
  MorselStats sort_morsels;
  SortedRelation sr;
  SortedRelation ss;
  {
    TraceSpan sort_span = SpanIf(ctx, Phase::kSortR);
    TEMPO_ASSIGN_OR_RETURN(
        SortedRelation sorted,
        ExternalSortByVs(r, options.buffer_pages, r->name() + ".sweep",
                         scheduler, &sort_morsels));
    sr = std::move(sorted);
  }
  {
    TraceSpan sort_span = SpanIf(ctx, Phase::kSortS);
    TEMPO_ASSIGN_OR_RETURN(
        SortedRelation sorted,
        ExternalSortByVs(s, options.buffer_pages, s->name() + ".sweep",
                         scheduler, &sort_morsels));
    ss = std::move(sorted);
  }
  exec_span.AddMorsels(sort_morsels);
  MergeHistogram(ctx, Hist::kMorselDurationUs, sort_morsels.duration_hist);
  IoStats sort_io = acct.stats() - before;
  TraceSpan sweep_span = SpanIf(ctx, Phase::kSweepPass);

  // --- Phase 2: one forward sweep over the merged arrival order. -------
  // Each sorted stream gets a multi-page read buffer (same split as
  // sort-merge); the active maps hold materialized live tuples in memory,
  // like the radix path's column state — the in-memory play is the point.
  uint32_t stream_chunk = std::max<uint32_t>(1, options.buffer_pages / 8);
  ViewStream stream_r(sr.relation.get(), stream_chunk);
  ViewStream stream_s(ss.relation.get(), stream_chunk);
  TEMPO_RETURN_IF_ERROR(stream_r.Prime());
  TEMPO_RETURN_IF_ERROR(stream_s.Prime());

  GaplessActiveMap active_r(&layout.r_join_attrs);
  GaplessActiveMap active_s(&layout.s_join_attrs);

  // Emission specialization, chosen once per run: the default overlap
  // disjunction needs no classification (a live key match overlaps by
  // construction); any narrower mask classifies in (r, s) order. With
  // meets/met-by in the mask, the expiry bound is slackened one chronon
  // so an entry ending exactly one chronon before the sweep survives to
  // meet its adjacent partner.
  const bool emit_all = pred.IsOverlapDefault();
  const bool adjacency = pred.NeedsAdjacency();

  ResultWriter writer = ResultWriter::Canonical(out);
  uint64_t probe_visits = 0;
  uint64_t views_probed = 0;
  while (!stream_r.Exhausted() || !stream_s.Exhausted()) {
    // Pick the stream whose head starts earlier (ties: r first), exactly
    // the sort-merge arrival order.
    bool take_r;
    if (stream_r.Exhausted()) {
      take_r = false;
    } else if (stream_s.Exhausted()) {
      take_r = true;
    } else {
      take_r = !IntervalStartLess()(stream_s.Head().interval(),
                                    stream_r.Head().interval());
    }
    ViewStream& stream = take_r ? stream_r : stream_s;
    const TupleView& arrival = stream.Head();
    const Interval arrival_iv = arrival.interval();
    const Chronon sweep = arrival_iv.start();
    const Chronon expire_bound =
        adjacency && sweep != kChrononMin ? sweep - 1 : sweep;

    active_r.ExpireTo(expire_bound);
    active_s.ExpireTo(expire_bound);

    // The arrival is materialized exactly once — for emission and its own
    // insertion; hashing and key equality run on the view.
    ++views_probed;
    Tuple arrival_tuple = arrival.Materialize();
    Status status = Status::OK();
    if (take_r) {
      active_s.ForEachCandidate(
          arrival, layout.r_join_attrs, expire_bound, &probe_visits,
          [&](const Tuple& entry) {
            if (!status.ok()) return;
            const Interval entry_iv = entry.interval();
            if (!emit_all && !pred.Test(ClassifyAllen(arrival_iv, entry_iv))) {
              return;
            }
            status = writer.Emit(layout, arrival_tuple, entry,
                                 PredicateResultInterval(arrival_iv, entry_iv));
          });
      TEMPO_RETURN_IF_ERROR(status);
      active_r.Insert(std::move(arrival_tuple),
                      arrival.HashAttrs(layout.r_join_attrs));
    } else {
      active_r.ForEachCandidate(
          arrival, layout.s_join_attrs, expire_bound, &probe_visits,
          [&](const Tuple& entry) {
            if (!status.ok()) return;
            const Interval entry_iv = entry.interval();
            if (!emit_all && !pred.Test(ClassifyAllen(entry_iv, arrival_iv))) {
              return;
            }
            status = writer.Emit(layout, entry, arrival_tuple,
                                 PredicateResultInterval(entry_iv, arrival_iv));
          });
      TEMPO_RETURN_IF_ERROR(status);
      active_s.Insert(std::move(arrival_tuple),
                      arrival.HashAttrs(layout.s_join_attrs));
    }
    TEMPO_RETURN_IF_ERROR(stream.Pop());
  }
  TEMPO_RETURN_IF_ERROR(writer.Finish());

  disk->DeleteFile(sr.relation->file_id()).ok();
  disk->DeleteFile(ss.relation->file_id()).ok();

  JoinRunStats stats;
  stats.io = acct.stats() - before;
  stats.output_tuples = writer.count();
  stats.Set(Metric::kSortIoOps, static_cast<double>(sort_io.total_ops()));
  stats.Set(Metric::kJoinPredicateMask, static_cast<double>(pred.mask()));
  stats.Set(Metric::kSweepActivePeak,
            static_cast<double>(active_r.peak() + active_s.peak()));
  stats.Set(Metric::kSweepAppends,
            static_cast<double>(active_r.appends() + active_s.appends()));
  stats.Set(Metric::kSweepCompactions,
            static_cast<double>(active_r.compactions() +
                                active_s.compactions()));
  stats.Set(Metric::kSweepProbeHits, static_cast<double>(probe_visits));
  stats.Set(Metric::kDecodeMaterializationsAvoided,
            static_cast<double>(sr.records_sorted_zero_copy +
                                ss.records_sorted_zero_copy + views_probed));
  if (parallel.enabled()) {
    stats.Set(Metric::kMorselsDispatched,
              static_cast<double>(sort_morsels.morsels_dispatched));
    stats.Set(Metric::kParallelEfficiency,
              sort_morsels.Efficiency(parallel.num_threads));
  }
  ExportMetrics(stats, ctx);
  return stats;
}

}  // namespace tempo
