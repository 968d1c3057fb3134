#include "join/sort_merge_join.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "join/external_sort.h"

namespace tempo {

namespace {

/// Sequential cursor over a sorted relation reading `chunk_pages`
/// consecutive pages per refill (1 random + (c-1) sequential I/Os), and
/// exposing the origin page of each tuple (needed to attribute back-up
/// reads).
class SweepStream {
 public:
  SweepStream(StoredRelation* rel, uint32_t chunk_pages)
      : rel_(rel), chunk_pages_(std::max<uint32_t>(1, chunk_pages)) {}

  bool Exhausted() const { return exhausted_; }
  const Tuple& Head() const { return buffered_[pos_]; }
  uint32_t HeadPage() const { return pages_[pos_]; }

  /// Loads the first chunk. Must be called once before use.
  Status Prime() { return RefillIfNeeded(); }

  /// Consumes the head tuple.
  Status Pop() {
    ++pos_;
    return RefillIfNeeded();
  }

  StoredRelation* relation() const { return rel_; }

 private:
  Status RefillIfNeeded() {
    if (pos_ < buffered_.size()) return Status::OK();
    buffered_.clear();
    pages_.clear();
    pos_ = 0;
    uint32_t end = std::min(rel_->num_pages(), next_page_ + chunk_pages_);
    if (next_page_ >= end) {
      exhausted_ = true;
      return Status::OK();
    }
    for (; next_page_ < end; ++next_page_) {
      Page page;
      TEMPO_RETURN_IF_ERROR(rel_->ReadPage(next_page_, &page));
      TEMPO_RETURN_IF_ERROR(
          StoredRelation::DecodePage(rel_->schema(), page, &buffered_));
      pages_.resize(buffered_.size(), next_page_);
    }
    return Status::OK();
  }

  StoredRelation* rel_;
  uint32_t chunk_pages_;
  uint32_t next_page_ = 0;
  bool exhausted_ = false;
  std::vector<Tuple> buffered_;
  std::vector<uint32_t> pages_;
  size_t pos_ = 0;
};

/// One not-yet-expired tuple of the sweep, remembering its disk page and
/// its global arrival sequence number (used by the eviction watermark).
struct ActiveTuple {
  Tuple tuple;
  uint32_t page;
  size_t bytes;
  uint64_t seq;
};

/// Hash-bucketed active set for one side of the sweep, with lazy
/// expiration during probes.
class ActiveSet {
 public:
  explicit ActiveSet(const std::vector<size_t>* key_attrs)
      : key_attrs_(key_attrs) {}

  void Insert(const Tuple& t, uint32_t page, size_t bytes, uint64_t seq) {
    size_t h = t.HashAttrs(*key_attrs_);
    buckets_[h].push_back(ActiveTuple{t, page, bytes, seq});
    ++live_count_;
    live_bytes_ += bytes;
    expiry_.push(std::make_pair(t.interval().end(), bytes));
    max_live_ = std::max(max_live_, live_count_);
  }

  /// Drops accounting for tuples expired before `sweep` (bucket entries are
  /// removed lazily on probe).
  void ExpireBefore(Chronon sweep) {
    while (!expiry_.empty() && expiry_.top().first < sweep) {
      live_bytes_ -= expiry_.top().second;
      --live_count_;
      expiry_.pop();
    }
  }

  /// Calls fn(const ActiveTuple&) for every live tuple matching `probe` on
  /// the aligned key positions; physically erases expired entries it
  /// passes over. `sweep` is the probe tuple's Vs.
  template <typename Fn>
  void ForEachMatch(const Tuple& probe, const std::vector<size_t>& probe_attrs,
                    Chronon sweep, Fn&& fn) {
    size_t h = probe.HashAttrs(probe_attrs);
    auto it = buckets_.find(h);
    if (it == buckets_.end()) return;
    auto& vec = it->second;
    for (size_t i = 0; i < vec.size();) {
      if (vec[i].tuple.interval().end() < sweep) {
        vec[i] = std::move(vec.back());
        vec.pop_back();
        continue;
      }
      if (vec[i].tuple.EqualOnAttrs(*key_attrs_, probe_attrs, probe)) {
        fn(vec[i]);
      }
      ++i;
    }
    if (vec.empty()) buckets_.erase(it);
  }

  uint64_t live_count() const { return live_count_; }
  uint64_t live_bytes() const { return live_bytes_; }
  uint64_t max_live() const { return max_live_; }

 private:
  const std::vector<size_t>* key_attrs_;
  std::unordered_map<size_t, std::vector<ActiveTuple>> buckets_;
  // (Ve, bytes) min-heap for byte/count accounting.
  std::priority_queue<std::pair<Chronon, size_t>,
                      std::vector<std::pair<Chronon, size_t>>,
                      std::greater<>>
      expiry_;
  uint64_t live_count_ = 0;
  uint64_t live_bytes_ = 0;
  uint64_t max_live_ = 0;
};

uint64_t WindowKey(int side, uint32_t page) {
  return (static_cast<uint64_t>(side) << 32) | page;
}

/// Tracks which active tuples still fit in the retention budget.
///
/// Live (not-yet-expired) tuples are retained in memory until their total
/// bytes exceed the budget; then the tuples with the *largest remaining
/// Ve* are evicted first — they are the long-lived tuples that would clog
/// memory longest, and they are exactly the tuples the paper says force
/// sort-merge to back up: a later match against an evicted tuple must
/// physically re-read its sorted-file page. Short tuples are never the
/// eviction victims (they expire almost immediately), so a workload
/// without long-lived tuples never backs up regardless of budget.
class RetentionBudget {
 public:
  explicit RetentionBudget(size_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  /// Registers an arrival at sweep position `sweep`; returns its seq.
  uint64_t Add(size_t bytes, Chronon ve, Chronon sweep) {
    ExpireBefore(sweep);
    uint64_t seq = next_seq_++;
    retained_bytes_ += bytes;
    by_ve_desc_.push(Entry{ve, seq, bytes});
    by_ve_asc_.push(Entry{ve, seq, bytes});
    while (retained_bytes_ > budget_bytes_ && !by_ve_desc_.empty()) {
      Entry victim = by_ve_desc_.top();
      by_ve_desc_.pop();
      if (!Release(victim)) continue;  // already expired or evicted
      evicted_.insert(victim.seq);
    }
    return seq;
  }

  /// Releases the bytes of tuples whose validity ended before `sweep`.
  void ExpireBefore(Chronon sweep) {
    while (!by_ve_asc_.empty() && by_ve_asc_.top().ve < sweep) {
      Entry e = by_ve_asc_.top();
      by_ve_asc_.pop();
      Release(e);
    }
  }

  bool Evicted(uint64_t seq) const { return evicted_.count(seq) != 0; }

 private:
  struct Entry {
    Chronon ve;
    uint64_t seq;
    size_t bytes;
  };
  struct VeLess {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.ve != b.ve ? a.ve < b.ve : a.seq < b.seq;
    }
  };
  struct VeGreater {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.ve != b.ve ? a.ve > b.ve : a.seq > b.seq;
    }
  };

  /// Subtracts an entry's bytes exactly once (both heaps see each entry).
  bool Release(const Entry& e) {
    if (!released_.insert(e.seq).second) return false;
    retained_bytes_ -= e.bytes;
    return true;
  }

  size_t budget_bytes_;
  uint64_t next_seq_ = 0;
  size_t retained_bytes_ = 0;
  // Max-Ve heap: eviction victims. Min-Ve heap: expiry.
  std::priority_queue<Entry, std::vector<Entry>, VeLess> by_ve_desc_;
  std::priority_queue<Entry, std::vector<Entry>, VeGreater> by_ve_asc_;
  std::unordered_set<uint64_t> released_;
  std::unordered_set<uint64_t> evicted_;
};

}  // namespace

StatusOr<JoinRunStats> SortMergeVtJoin(StoredRelation* r, StoredRelation* s,
                                       StoredRelation* out,
                                       const ExecOptions& options,
                                       ExecContext* ctx) {
  TEMPO_RETURN_IF_ERROR(
      ValidateExecOptions(JoinExecutor::kSortMerge, options));
  TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout, PrepareJoin(r, s, out));
  if (options.buffer_pages < 4) {
    return Status::InvalidArgument(
        "sort-merge join needs at least 4 buffer pages");
  }
  Disk* disk = r->disk();
  IoAccountant& acct = disk->accountant();
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&acct);
  }
  IoStats before = acct.stats();
  TraceSpan exec_span = SpanIf(ctx, Phase::kSortMerge);

  // --- Phase 1: sort both inputs by Vs. --------------------------------
  Scheduler* scheduler = SchedulerOf(ctx);
  const ParallelOptions parallel = SchedulerParallel(scheduler);
  MorselStats sort_morsels;
  SortedRelation sr;
  SortedRelation ss;
  {
    TraceSpan sort_span = SpanIf(ctx, Phase::kSortR);
    TEMPO_ASSIGN_OR_RETURN(
        SortedRelation sorted,
        ExternalSortByVs(r, options.buffer_pages, r->name() + ".sorted",
                         scheduler, &sort_morsels));
    sr = std::move(sorted);
  }
  {
    TraceSpan sort_span = SpanIf(ctx, Phase::kSortS);
    TEMPO_ASSIGN_OR_RETURN(
        SortedRelation sorted,
        ExternalSortByVs(s, options.buffer_pages, s->name() + ".sorted",
                         scheduler, &sort_morsels));
    ss = std::move(sorted);
  }
  exec_span.AddMorsels(sort_morsels);
  MergeHistogram(ctx, Hist::kMorselDurationUs, sort_morsels.duration_hist);
  IoStats sort_io = acct.stats() - before;
  TraceSpan sweep_span = SpanIf(ctx, Phase::kMergeSweep);

  // --- Phase 2: co-sweep in Vs order. ----------------------------------
  // Each sorted stream gets a multi-page read buffer so its refills are
  // mostly sequential; an eighth of the budget each is a reasonable split
  // that leaves the bulk of memory to the window and active sets.
  uint32_t stream_chunk = std::max<uint32_t>(1, options.buffer_pages / 8);
  SweepStream stream_r(sr.relation.get(), stream_chunk);
  SweepStream stream_s(ss.relation.get(), stream_chunk);
  TEMPO_RETURN_IF_ERROR(stream_r.Prime());
  TEMPO_RETURN_IF_ERROR(stream_s.Prime());

  ActiveSet active_r(&layout.r_join_attrs);
  ActiveSet active_s(&layout.s_join_attrs);

  // One result page and a stream buffer per input; the remainder is the
  // merge window, shared with the active sets.
  uint32_t window_base = options.buffer_pages > 2 * stream_chunk + 1
                             ? options.buffer_pages - 2 * stream_chunk - 1
                             : 1;
  // Active tuples are retained in memory up to the budget; over budget,
  // the longest-remaining (long-lived) tuples are evicted. A match against
  // an evicted tuple is a *back-up*: its sorted-file page is physically
  // re-read. The re-read page's long-lived tuples are retained from then
  // on — they are exactly the tuples worth keeping — so each backed-up
  // page is re-read at most once over the whole merge.
  RetentionBudget budget(static_cast<size_t>(window_base) * kPageSize);

  ResultWriter writer(out);
  uint64_t backup_reads = 0;
  Page scratch;
  std::unordered_set<uint64_t> backed_up_pages;

  auto charge_backup = [&](int side, const ActiveTuple& at) -> Status {
    if (!budget.Evicted(at.seq)) return Status::OK();
    uint64_t key = WindowKey(side, at.page);
    if (!backed_up_pages.insert(key).second) return Status::OK();
    StoredRelation* rel = side == 0 ? sr.relation.get() : ss.relation.get();
    TEMPO_RETURN_IF_ERROR(rel->ReadPage(at.page, &scratch));
    ++backup_reads;
    return Status::OK();
  };

  while (!stream_r.Exhausted() || !stream_s.Exhausted()) {
    // Pick the stream whose head starts earlier (ties: r first).
    bool take_r;
    if (stream_r.Exhausted()) {
      take_r = false;
    } else if (stream_s.Exhausted()) {
      take_r = true;
    } else {
      take_r = !IntervalStartLess()(stream_s.Head().interval(),
                                    stream_r.Head().interval());
    }
    SweepStream& stream = take_r ? stream_r : stream_s;
    const Tuple arrival = stream.Head();
    const uint32_t arrival_page = stream.HeadPage();
    const Chronon sweep = arrival.interval().start();

    active_r.ExpireBefore(sweep);
    active_s.ExpireBefore(sweep);
    budget.ExpireBefore(sweep);

    // Probe the opposite active set; each match may require backing up to
    // the partner's page.
    Status status = Status::OK();
    if (take_r) {
      active_s.ForEachMatch(arrival, layout.r_join_attrs, sweep,
                            [&](const ActiveTuple& at) {
        if (!status.ok()) return;
        auto common = Overlap(arrival.interval(), at.tuple.interval());
        if (!common) return;
        if (!PredicateAdmitsOverlapping(options.predicate, arrival.interval(),
                                        at.tuple.interval())) {
          return;
        }
        status = charge_backup(1, at);
        if (!status.ok()) return;
        status = writer.Emit(layout, arrival, at.tuple, *common);
      });
      TEMPO_RETURN_IF_ERROR(status);
      size_t bytes = arrival.SerializedSize(r->schema());
      active_r.Insert(arrival, arrival_page, bytes,
                      budget.Add(bytes, arrival.interval().end(), sweep));
    } else {
      active_r.ForEachMatch(arrival, layout.s_join_attrs, sweep,
                            [&](const ActiveTuple& at) {
        if (!status.ok()) return;
        auto common = Overlap(at.tuple.interval(), arrival.interval());
        if (!common) return;
        if (!PredicateAdmitsOverlapping(options.predicate, at.tuple.interval(),
                                        arrival.interval())) {
          return;
        }
        status = charge_backup(0, at);
        if (!status.ok()) return;
        status = writer.Emit(layout, at.tuple, arrival, *common);
      });
      TEMPO_RETURN_IF_ERROR(status);
      size_t bytes = arrival.SerializedSize(s->schema());
      active_s.Insert(arrival, arrival_page, bytes,
                      budget.Add(bytes, arrival.interval().end(), sweep));
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
  stats.Set(Metric::kDecodeMaterializationsAvoided,
            static_cast<double>(sr.records_sorted_zero_copy +
                                ss.records_sorted_zero_copy));
  stats.Set(Metric::kBackupPageReads, static_cast<double>(backup_reads));
  stats.Set(Metric::kMaxActiveTuples,
            static_cast<double>(active_r.max_live() + active_s.max_live()));
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
