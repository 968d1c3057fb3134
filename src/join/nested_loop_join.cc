#include "join/nested_loop_join.h"

namespace tempo {

StatusOr<JoinRunStats> NestedLoopVtJoin(StoredRelation* r, StoredRelation* s,
                                        StoredRelation* out,
                                        const ExecOptions& options,
                                        ExecContext* ctx) {
  TEMPO_RETURN_IF_ERROR(
      ValidateExecOptions(JoinExecutor::kNestedLoop, options));
  TEMPO_ASSIGN_OR_RETURN(NaturalJoinLayout layout, PrepareJoin(r, s, out));
  if (options.buffer_pages < 3) {
    return Status::InvalidArgument(
        "nested-loop join needs at least 3 buffer pages");
  }
  IoAccountant& acct = r->disk()->accountant();
  if (ctx != nullptr && ctx->accountant() == nullptr) {
    ctx->BindAccountant(&acct);
  }
  IoStats before = acct.stats();
  TraceSpan span = SpanIf(ctx, Phase::kNestedLoop);

  const uint32_t block_pages = options.buffer_pages - 2;
  const uint32_t pages_r = r->num_pages();
  const uint32_t pages_s = s->num_pages();

  ResultWriter writer(out);
  uint64_t blocks = 0;
  uint64_t views_probed = 0;
  const RecordLayout& s_layout = s->schema().layout();

  std::vector<Tuple> block;
  for (uint32_t block_start = 0; block_start < pages_r;
       block_start += block_pages) {
    ++blocks;
    uint32_t block_end = block_start + block_pages;
    if (block_end > pages_r) block_end = pages_r;

    // Load the outer block (1 random + (k-1) sequential reads).
    block.clear();
    for (uint32_t p = block_start; p < block_end; ++p) {
      Page page;
      TEMPO_RETURN_IF_ERROR(r->ReadPage(p, &page));
      TEMPO_RETURN_IF_ERROR(
          StoredRelation::DecodePage(r->schema(), page, &block));
    }
    HashedTupleIndex index(&block, &layout.r_join_attrs);

    // Scan the inner relation through one page buffer, probing each
    // record in place off the page — no inner tuple is materialized
    // unless it joins.
    for (uint32_t p = 0; p < pages_s; ++p) {
      Page page;
      TEMPO_RETURN_IF_ERROR(s->ReadPage(p, &page));
      for (uint16_t slot = 0; slot < page.num_records(); ++slot) {
        std::string_view rec = page.GetRecord(slot);
        TEMPO_ASSIGN_OR_RETURN(
            TupleView y, TupleView::Make(s_layout, rec.data(), rec.size()));
        ++views_probed;
        Status status = Status::OK();
        const Interval y_iv = y.interval();
        index.ForEachMatch(y, layout.s_join_attrs, [&](const Tuple& x) {
          if (!status.ok()) return;
          auto common = Overlap(x.interval(), y_iv);
          if (common &&
              PredicateAdmitsOverlapping(options.predicate, x.interval(),
                                         y_iv)) {
            status = writer.Emit(layout, x, y, *common);
          }
        });
        TEMPO_RETURN_IF_ERROR(status);
      }
    }
  }
  TEMPO_RETURN_IF_ERROR(writer.Finish());

  JoinRunStats stats;
  stats.io = acct.stats() - before;
  stats.output_tuples = writer.count();
  stats.Set(Metric::kOuterBlocks, static_cast<double>(blocks));
  stats.Set(Metric::kDecodeMaterializationsAvoided,
            static_cast<double>(views_probed));
  ExportMetrics(stats, ctx);
  return stats;
}

double NestedLoopAnalyticCost(uint32_t pages_r, uint32_t pages_s,
                              uint32_t buffer_pages, const CostModel& model,
                              HeadModel head_model) {
  TEMPO_CHECK(buffer_pages >= 3);
  if (pages_r == 0) return 0.0;
  uint32_t block_pages = buffer_pages - 2;
  uint64_t blocks = (pages_r + block_pages - 1) / block_pages;
  uint64_t inner_random = pages_s > 0 ? blocks : 0;
  uint64_t inner_seq = pages_s > 0 ? blocks * (pages_s - 1) : 0;
  if (head_model == HeadModel::kPerFile) {
    // The outer blocks form one continuous pass over r.
    return model.Cost(1 + inner_random, (pages_r - 1) + inner_seq);
  }
  // Single head: every outer block and every inner scan reseeks.
  return model.Cost(blocks + inner_random, (pages_r - blocks) + inner_seq);
}

}  // namespace tempo
