#include "core/radix_join.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>

#include "common/env.h"
#include "parallel/scheduler.h"
#include "parallel/thread_pool.h"

namespace tempo {

uint64_t ResolveRadixBudgetBytes(const ExecOptions& options) {
  if (options.radix_budget_bytes > 0) return options.radix_budget_bytes;
  // Fallback 0 = "unset": fall through to the buffer-derived default
  // (also what a rejected malformed value resolves to, after the parser's
  // warning).
  const uint64_t mb =
      EnvStrictUint64("TEMPO_RADIX_THRESHOLD_MB", 0,
                      std::numeric_limits<uint64_t>::max() >> 20);
  if (mb > 0) return mb << 20;
  return static_cast<uint64_t>(options.buffer_pages) * kPageSize;
}

uint64_t EstimateRadixFootprintBytes(uint32_t pages_r, uint32_t pages_s) {
  return (static_cast<uint64_t>(pages_r) + pages_s) * kPageSize;
}

namespace {

/// One aligned pair of non-empty buckets: index ranges into the two sides'
/// radix-sorted column arrays.
struct BucketTask {
  size_t r_begin, r_end;
  size_t s_begin, s_end;
};

/// One verified match, by original row ordinals. The global sort of these
/// is what pins the emission order to the reference join's.
struct MatchPair {
  uint32_t r_row;
  uint32_t s_row;
};

/// Sequential page scan + column extraction of one input, with the memory
/// budget enforced after every page: `used_bytes` accumulates across both
/// sides, so the abort happens mid-extract at the first page that pushes
/// the combined exact footprint past the budget.
Status ExtractSide(StoredRelation* rel, ColumnExtractor* extractor,
                   uint64_t budget_bytes, uint64_t other_side_bytes) {
  Page page;
  const uint32_t pages = rel->num_pages();
  for (uint32_t p = 0; p < pages; ++p) {
    TEMPO_RETURN_IF_ERROR(rel->ReadPage(p, &page));
    TEMPO_RETURN_IF_ERROR(extractor->AddPage(page).status());
    const uint64_t used = other_side_bytes + extractor->footprint_bytes();
    if (used > budget_bytes) {
      return Status::ResourceExhausted(
          "radix join footprint " + std::to_string(used) +
          " B exceeds budget " + std::to_string(budget_bytes) +
          " B after page " + std::to_string(p) + " of " + rel->name());
    }
  }
  return Status::OK();
}

/// Number of 8-bit passes so the smaller side's per-bucket column state
/// fits `bucket_target_bytes` (assuming even spread; skewed keys simply
/// overflow their bucket, which the probe handles — correctness never
/// depends on the split).
uint32_t ChoosePasses(size_t build_rows, uint32_t bucket_target_bytes) {
  const uint64_t bytes = static_cast<uint64_t>(build_rows) * kColumnRowBytes;
  uint32_t passes = 0;
  while (passes < 4 && (bytes >> (8 * passes)) > bucket_target_bytes) {
    ++passes;
  }
  return passes;
}

/// LSD radix sort of the columns by the low 8*passes bits of the key hash:
/// one stable counting-sort scatter per pass, ping-ponging through
/// `scratch`. After the final pass the arrays are grouped by
/// (hash & ((1 << 8*passes) - 1)) — each final bucket is a contiguous run.
/// Returns the rows moved (for the rows-routed metric).
uint64_t RadixPartition(JoinColumns* cols, JoinColumns* scratch,
                        uint32_t passes) {
  const size_t n = cols->num_rows();
  scratch->Resize(n);
  for (uint32_t pass = 0; pass < passes; ++pass) {
    const uint32_t shift = 8 * pass;
    size_t counts[256] = {};
    for (size_t i = 0; i < n; ++i) {
      ++counts[(cols->key_hashes[i] >> shift) & 0xFF];
    }
    size_t offsets[256];
    size_t sum = 0;
    for (size_t d = 0; d < 256; ++d) {
      offsets[d] = sum;
      sum += counts[d];
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t dst = offsets[(cols->key_hashes[i] >> shift) & 0xFF]++;
      scratch->key_hashes[dst] = cols->key_hashes[i];
      scratch->starts[dst] = cols->starts[i];
      scratch->ends[dst] = cols->ends[i];
      scratch->rows[dst] = cols->rows[i];
    }
    std::swap(*cols, *scratch);
  }
  return static_cast<uint64_t>(n) * passes;
}

/// Aligns the two radix-sorted sides into bucket-pair tasks with one
/// two-pointer sweep; buckets empty on either side produce no task.
std::vector<BucketTask> AlignBuckets(const JoinColumns& rc,
                                     const JoinColumns& sc, uint64_t mask) {
  std::vector<BucketTask> tasks;
  const size_t nr = rc.num_rows();
  const size_t ns = sc.num_rows();
  auto run_end = [mask](const JoinColumns& c, size_t i) {
    const uint64_t b = c.key_hashes[i] & mask;
    const size_t n = c.num_rows();
    while (i < n && (c.key_hashes[i] & mask) == b) ++i;
    return i;
  };
  size_t i = 0, j = 0;
  while (i < nr && j < ns) {
    const uint64_t bi = rc.key_hashes[i] & mask;
    const uint64_t bj = sc.key_hashes[j] & mask;
    if (bi < bj) {
      i = run_end(rc, i);
    } else if (bj < bi) {
      j = run_end(sc, j);
    } else {
      const size_t ie = run_end(rc, i);
      const size_t je = run_end(sc, j);
      tasks.push_back({i, ie, j, je});
      i = ie;
      j = je;
    }
  }
  return tasks;
}

/// Joins one aligned bucket pair: dense 256-way position table on the next
/// 8 hash bits over the smaller side, probed with the larger side. The
/// interval-overlap quick test and the full-hash compare run entirely on
/// the flat columns; only survivors touch record bytes, to verify key
/// equality with Value semantics (hash collisions, NULL == NULL).
void BucketJoin(const BucketTask& t, const JoinColumns& rc,
                const JoinColumns& sc, const std::vector<TupleView>& r_views,
                const std::vector<TupleView>& s_views,
                const NaturalJoinLayout& layout, uint32_t shift,
                std::vector<MatchPair>* out) {
  const size_t nr = t.r_end - t.r_begin;
  const size_t ns = t.s_end - t.s_begin;
  const bool build_r = nr <= ns;
  const JoinColumns& bc = build_r ? rc : sc;
  const size_t b_begin = build_r ? t.r_begin : t.s_begin;
  const size_t nb = build_r ? nr : ns;
  const JoinColumns& pc = build_r ? sc : rc;
  const size_t p_begin = build_r ? t.s_begin : t.r_begin;
  const size_t np = build_r ? ns : nr;

  // Dense sub-bucket table (the 165DB shape): counts/offsets over the
  // digit above the partition bits, then a position scatter.
  uint32_t counts[256] = {};
  for (size_t i = 0; i < nb; ++i) {
    ++counts[(bc.key_hashes[b_begin + i] >> shift) & 0xFF];
  }
  uint32_t offsets[256];
  uint32_t sum = 0;
  for (size_t d = 0; d < 256; ++d) {
    offsets[d] = sum;
    sum += counts[d];
  }
  std::vector<uint32_t> positions(nb);
  {
    uint32_t fill[256];
    std::memcpy(fill, offsets, sizeof(fill));
    for (size_t i = 0; i < nb; ++i) {
      positions[fill[(bc.key_hashes[b_begin + i] >> shift) & 0xFF]++] =
          static_cast<uint32_t>(i);
    }
  }

  for (size_t p = 0; p < np; ++p) {
    const size_t pi = p_begin + p;
    const uint64_t h = pc.key_hashes[pi];
    const uint32_t d = (h >> shift) & 0xFF;
    const uint32_t lo = offsets[d];
    const uint32_t hi = lo + counts[d];
    for (uint32_t k = lo; k < hi; ++k) {
      const size_t bi = b_begin + positions[k];
      if (bc.key_hashes[bi] != h) continue;
      // Interval-overlap quick test on the columns.
      if (bc.starts[bi] > pc.ends[pi] || pc.starts[pi] > bc.ends[bi]) {
        continue;
      }
      const uint32_t r_row = build_r ? bc.rows[bi] : pc.rows[pi];
      const uint32_t s_row = build_r ? pc.rows[pi] : bc.rows[bi];
      if (!r_views[r_row].EqualOnAttrs(layout.r_join_attrs,
                                       layout.s_join_attrs, s_views[s_row])) {
        continue;
      }
      out->push_back({r_row, s_row});
    }
  }
}

}  // namespace

StatusOr<JoinRunStats> RadixVtJoin(StoredRelation* r, StoredRelation* s,
                                   StoredRelation* out,
                                   const RadixJoinOptions& options,
                                   ExecContext* ctx) {
  TEMPO_RETURN_IF_ERROR(
      ValidateExecOptions(JoinExecutor::kInMemoryRadix, options));
  TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout, PrepareJoin(r, s, out));
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&r->disk()->accountant());
  }
  IoAccountant& accountant = r->disk()->accountant();
  const IoStats io_before = accountant.stats();

  JoinRunStats stats;
  const uint64_t budget = ResolveRadixBudgetBytes(options);
  const uint64_t est =
      EstimateRadixFootprintBytes(r->num_pages(), s->num_pages());
  stats.Set(Metric::kRadixBudgetBytes, static_cast<double>(budget));
  stats.Set(Metric::kRadixEstFootprintBytes, static_cast<double>(est));

  TraceSpan root = SpanIf(ctx, Phase::kRadixJoin);

  // --- radix_extract: the run's only charged I/O -------------------------
  ColumnExtractor r_extract(&r->schema(), &layout.r_join_attrs);
  ColumnExtractor s_extract(&s->schema(), &layout.s_join_attrs);
  {
    TraceSpan extract_span = SpanUnderIf(ctx, root, Phase::kRadixExtract);
    Status st = ExtractSide(r, &r_extract, budget, 0);
    if (st.ok()) {
      st = ExtractSide(s, &s_extract, budget, r_extract.footprint_bytes());
    }
    if (!st.ok()) {
      // Surface how far extraction got before the abort, so EXPLAIN can
      // show the fallback decision even though no stats are returned.
      SetMetric(ctx, Metric::kRadixBudgetBytes, static_cast<double>(budget));
      SetMetric(ctx, Metric::kRadixEstFootprintBytes,
                static_cast<double>(est));
      SetMetric(ctx, Metric::kRadixActFootprintBytes,
                static_cast<double>(r_extract.footprint_bytes() +
                                    s_extract.footprint_bytes()));
      return st;
    }
  }
  const uint64_t actual =
      r_extract.footprint_bytes() + s_extract.footprint_bytes();
  stats.Set(Metric::kRadixActFootprintBytes, static_cast<double>(actual));

  JoinColumns& rc = r_extract.columns();
  JoinColumns& sc = s_extract.columns();
  const size_t build_rows = std::min(rc.num_rows(), sc.num_rows());
  const uint32_t passes = ChoosePasses(build_rows, options.bucket_target_bytes);
  const uint64_t mask = passes == 0 ? 0 : (uint64_t{1} << (8 * passes)) - 1;
  stats.Set(Metric::kRadixPasses, passes);
  stats.Set(Metric::kRadixFanout,
            static_cast<double>(uint64_t{1} << (8 * passes)));

  // --- radix_partition ---------------------------------------------------
  std::vector<BucketTask> tasks;
  {
    TraceSpan part_span = SpanUnderIf(ctx, root, Phase::kRadixPartition);
    JoinColumns scratch;
    uint64_t routed = RadixPartition(&rc, &scratch, passes);
    routed += RadixPartition(&sc, &scratch, passes);
    stats.Set(Metric::kRadixRowsRouted, static_cast<double>(routed));
    tasks = AlignBuckets(rc, sc, mask);
  }
  stats.Set(Metric::kRadixBuckets, static_cast<double>(tasks.size()));

  // --- radix_probe: parallel bucket build/probe, ordered emission --------
  {
    TraceSpan probe_span = SpanUnderIf(ctx, root, Phase::kRadixProbe);
    Scheduler* scheduler = SchedulerOf(ctx);
    const ParallelOptions parallel = SchedulerParallel(scheduler);
    const uint32_t shift = 8 * passes;
    std::vector<std::vector<MatchPair>> per_task(tasks.size());
    MorselStats morsels;
    Status st = ParallelFor(
        SchedulerPool(scheduler), tasks.size(), /*morsel_size=*/1,
        [&](size_t, size_t begin, size_t end) {
          for (size_t t = begin; t < end; ++t) {
            BucketJoin(tasks[t], rc, sc, r_extract.views(), s_extract.views(),
                       layout, shift, &per_task[t]);
          }
          return Status::OK();
        },
        &morsels);
    TEMPO_RETURN_IF_ERROR(st);
    if (parallel.enabled()) {
      probe_span.AddMorsels(morsels);
      stats.Set(Metric::kMorselsDispatched,
                static_cast<double>(morsels.morsels_dispatched));
      stats.Set(Metric::kParallelEfficiency,
                morsels.Efficiency(parallel.num_threads));
    }

    // Deterministic output: merge the per-bucket matches and sort globally
    // by (r_row, s_row) — exactly the reference join's r-outer/s-inner
    // emission order, independent of bucket layout and thread count.
    size_t total = 0;
    for (const auto& v : per_task) total += v.size();
    std::vector<MatchPair> pairs;
    pairs.reserve(total);
    for (const auto& v : per_task) {
      pairs.insert(pairs.end(), v.begin(), v.end());
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const MatchPair& a, const MatchPair& b) {
                if (a.r_row != b.r_row) return a.r_row < b.r_row;
                return a.s_row < b.s_row;
              });

    ResultWriter writer(out);
    for (const MatchPair& p : pairs) {
      const TupleView& xv = r_extract.views()[p.r_row];
      const TupleView& yv = s_extract.views()[p.s_row];
      const std::optional<Interval> overlap =
          Overlap(xv.interval(), yv.interval());
      if (!PredicateAdmitsOverlapping(options.predicate, xv.interval(),
                                      yv.interval())) {
        continue;
      }
      TEMPO_RETURN_IF_ERROR(writer.Emit(layout, xv, yv, *overlap));
    }
    TEMPO_RETURN_IF_ERROR(writer.Finish());
    stats.output_tuples = writer.count();
  }

  root.End();
  stats.io = accountant.stats() - io_before;
  ExportMetrics(stats, ctx);
  return stats;
}

}  // namespace tempo
