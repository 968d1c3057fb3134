#ifndef TEMPO_CORE_RADIX_JOIN_H_
#define TEMPO_CORE_RADIX_JOIN_H_

#include "join/join_common.h"
#include "relation/column_extract.h"

namespace tempo {

/// Options for the in-memory columnar radix join. The shared knobs live in
/// the ExecOptions base (slice-assign to transfer them); the radix path
/// additionally honors radix_budget_bytes from the base — see
/// ResolveRadixBudgetBytes — and the bucket sizing knob below.
struct RadixJoinOptions : ExecOptions {
  /// Target bytes of build-side column state per final bucket. The number
  /// of 8-bit radix passes is the smallest that brings the smaller side's
  /// columns under this per bucket (clamped to 4 passes); the default
  /// keeps each bucket's working set L2-resident.
  uint32_t bucket_target_bytes = 256 * 1024;
};

/// Resolves the in-memory footprint budget the radix path may pin,
/// by precedence:
///   1. options.radix_budget_bytes, when non-zero;
///   2. TEMPO_RADIX_THRESHOLD_MB (strictly parsed; malformed values are
///      rejected with a warning naming the bad value), when set;
///   3. buffer_pages * kPageSize — the paper's buffSize, expressed in
///      bytes: by default the fast path may hold exactly the memory the
///      buffer pool grants the algorithm.
uint64_t ResolveRadixBudgetBytes(const ExecOptions& options);

/// Planner-side footprint estimate: the page bytes of both inputs. This is
/// deliberately optimistic — the exact per-row column/view overhead
/// (kColumnRowBytes) is only known once extraction counts rows — so the
/// estimate errs toward trying the fast path, and RadixVtJoin enforces the
/// budget exactly, page by page, during extraction; the auto row falls
/// back to the paged Grace join on kResourceExhausted.
uint64_t EstimateRadixFootprintBytes(uint32_t pages_r, uint32_t pages_s);

/// In-memory columnar radix evaluation of r |X|_v s.
///
/// Phases (each a span under the kRadixJoin root):
///   - radix_extract: one sequential page scan of each input (all charged
///     I/O of the run: 1 random + (pages-1) sequential per input, the same
///     charge as two ReadAll scans), pinning pages and extracting
///     join-key-hash / Vs / Ve / row-ordinal columns into flat arrays
///     (relation/column_extract.h). The memory budget is enforced
///     incrementally; exceeding it aborts with kResourceExhausted before
///     anything is emitted.
///   - radix_partition: multi-pass LSD 8-bit counting sort of both sides'
///     columns on the low hash bits, down to L2-sized buckets. Both sides
///     use the same pass count, so equal keys land in aligned buckets.
///   - radix_probe: per aligned bucket pair, a dense 256-way position
///     table on the next 8 hash bits over the smaller side, probed with
///     the larger side under the interval-overlap quick test straight on
///     the columns; survivors are verified on the record bytes
///     (TupleView::EqualOnAttrs — hash collisions and NULL == NULL
///     semantics). Bucket pairs fan out over the morsel ThreadPool.
///
/// Output determinism: match pairs are collected as (r_row, s_row) row
/// ordinals and globally sorted before emission, so the output is emitted
/// in exactly the reference join's r-outer/s-inner order — byte-identical
/// pages at any thread count, with identical charged IoStats.
///
/// Metrics: kRadixPasses, kRadixFanout, kRadixBuckets, kRadixRowsRouted,
/// kRadixEstFootprintBytes, kRadixActFootprintBytes, kRadixBudgetBytes;
/// with parallel mode additionally kMorselsDispatched and
/// kParallelEfficiency.
StatusOr<JoinRunStats> RadixVtJoin(StoredRelation* r, StoredRelation* s,
                                   StoredRelation* out,
                                   const RadixJoinOptions& options,
                                   ExecContext* ctx = nullptr);

}  // namespace tempo

#endif  // TEMPO_CORE_RADIX_JOIN_H_
