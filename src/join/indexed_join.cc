#include "join/indexed_join.h"

#include <algorithm>

#include "join/external_sort.h"

namespace tempo {

StatusOr<JoinRunStats> IndexedVtJoin(StoredRelation* r, StoredRelation* s,
                                     StoredRelation* out,
                                     const ExecOptions& options,
                                     ExecContext* ctx) {
  TEMPO_RETURN_IF_ERROR(ValidateExecOptions(JoinExecutor::kIndexed, options));
  TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout, PrepareJoin(r, s, out));
  if (options.buffer_pages < 8) {
    return Status::InvalidArgument(
        "indexed join needs at least 8 buffer pages");
  }
  Disk* disk = r->disk();
  IoAccountant& acct = disk->accountant();
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&acct);
  }
  IoStats before = acct.stats();
  TraceSpan exec_span = SpanIf(ctx, Phase::kIndexed);

  // Sort both inputs by Vs; build the append-only tree over the inner.
  SortedRelation sr;
  SortedRelation ss;
  {
    TraceSpan sort_span = SpanIf(ctx, Phase::kSortR);
    TEMPO_ASSIGN_OR_RETURN(
        SortedRelation sorted,
        ExternalSortByVs(r, options.buffer_pages, r->name() + ".isorted"));
    sr = std::move(sorted);
  }
  {
    TraceSpan sort_span = SpanIf(ctx, Phase::kSortS);
    TEMPO_ASSIGN_OR_RETURN(
        SortedRelation sorted,
        ExternalSortByVs(s, options.buffer_pages, s->name() + ".isorted"));
    ss = std::move(sorted);
  }
  IoStats sort_end = acct.stats();
  StatusOr<std::unique_ptr<AppendOnlyTree>> tree_or =
      Status::Internal("unset");
  {
    TraceSpan build_span = SpanIf(ctx, Phase::kIndexBuild);
    tree_or = AppendOnlyTree::Build(ss.relation.get(), s->name());
  }
  TEMPO_RETURN_IF_ERROR(tree_or.status());
  std::unique_ptr<AppendOnlyTree> tree = std::move(tree_or).value();
  IoStats build_end = acct.stats();
  TraceSpan probe_span = SpanIf(ctx, Phase::kIndexProbe);

  // Buffer split: a few frames pin index nodes, the rest cache inner
  // data pages; one page streams the outer, one holds the result.
  const uint32_t node_frames = std::max<uint32_t>(2, tree->height() + 1);
  BufferManager node_pool(disk, node_frames);
  uint32_t data_frames = options.buffer_pages > node_frames + 2
                             ? options.buffer_pages - node_frames - 2
                             : 1;
  BufferManager data_pool(disk, data_frames);
  ScopedPoolRegistration node_reg(ctx, &node_pool);
  ScopedPoolRegistration data_reg(ctx, &data_pool);

  ResultWriter writer(out);
  uint64_t inner_pages_scanned = 0;
  uint64_t views_probed = 0;
  const RecordLayout& s_view_layout = ss.relation->schema().layout();
  const int64_t widen = tree->max_duration();

  const uint32_t r_pages = sr.relation->num_pages();
  const uint32_t s_pages = ss.relation->num_pages();
  for (uint32_t rp = 0; rp < r_pages; ++rp) {
    TEMPO_ASSIGN_OR_RETURN(std::vector<Tuple> outer,
                           sr.relation->ReadPageTuples(rp));
    if (outer.empty()) continue;
    HashedTupleIndex probe(&outer, &layout.r_join_attrs);
    // The inner range this outer page can match: tuples with
    // Vs in [min Vs - maxDuration, max Ve].
    Chronon lo = outer.front().interval().start();
    Chronon hi = outer.front().interval().end();
    for (const Tuple& x : outer) {
      lo = std::min(lo, x.interval().start());
      hi = std::max(hi, x.interval().end());
    }
    Chronon lo_bound =
        lo > kChrononMin + widen ? lo - widen : kChrononMin;
    TEMPO_ASSIGN_OR_RETURN(uint32_t first,
                           tree->LowerBoundPage(lo_bound, &node_pool));
    TEMPO_ASSIGN_OR_RETURN(uint32_t last,
                           tree->UpperBoundPage(hi, &node_pool));
    if (last >= s_pages) last = s_pages - 1;
    for (uint32_t sp = first; sp <= last && sp < s_pages; ++sp) {
      TEMPO_ASSIGN_OR_RETURN(Page * page,
                             data_pool.Pin(ss.relation->file_id(), sp));
      ++inner_pages_scanned;
      // Probe records in place off the pinned frame; the page stays
      // pinned until the probe loop is done with its views.
      Status status = Status::OK();
      for (uint16_t slot = 0; slot < page->num_records(); ++slot) {
        std::string_view rec = page->GetRecord(slot);
        auto y_or = TupleView::Make(s_view_layout, rec.data(), rec.size());
        if (!y_or.ok()) {
          status = y_or.status();
          break;
        }
        const TupleView& y = *y_or;
        ++views_probed;
        const Interval y_iv = y.interval();
        probe.ForEachMatch(y, layout.s_join_attrs, [&](const Tuple& x) {
          if (!status.ok()) return;
          auto common = Overlap(x.interval(), y_iv);
          if (!common) return;
          if (!PredicateAdmitsOverlapping(options.predicate, x.interval(),
                                          y_iv)) {
            return;
          }
          status = writer.Emit(layout, x, y, *common);
        });
        if (!status.ok()) break;
      }
      TEMPO_RETURN_IF_ERROR(
          data_pool.Unpin(ss.relation->file_id(), sp, false));
      TEMPO_RETURN_IF_ERROR(status);
    }
  }
  TEMPO_RETURN_IF_ERROR(writer.Finish());

  JoinRunStats stats;
  stats.io = acct.stats() - before;
  stats.output_tuples = writer.count();
  stats.Set(Metric::kIndexNodePages,
            static_cast<double>(tree->num_node_pages()));
  stats.Set(Metric::kIndexBuildIoOps,
            static_cast<double>((build_end - sort_end).total_ops()));
  stats.Set(Metric::kSortIoOps,
            static_cast<double>((sort_end - before).total_ops()));
  stats.Set(Metric::kInnerPagesScanned,
            static_cast<double>(inner_pages_scanned));
  stats.Set(Metric::kDecodeMaterializationsAvoided,
            static_cast<double>(views_probed + sr.records_sorted_zero_copy +
                                ss.records_sorted_zero_copy));

  tree->Drop().ok();
  disk->DeleteFile(sr.relation->file_id()).ok();
  disk->DeleteFile(ss.relation->file_id()).ok();
  ExportMetrics(stats, ctx);
  return stats;
}

}  // namespace tempo
