#ifndef TEMPO_RELATION_COLUMN_EXTRACT_H_
#define TEMPO_RELATION_COLUMN_EXTRACT_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/statusor.h"
#include "common/vector_growth.h"
#include "relation/schema.h"
#include "relation/tuple_view.h"
#include "storage/page.h"
#include "temporal/interval.h"

namespace tempo {

/// Flat join columns extracted from one relation's page stream: one
/// structure-of-arrays entry per record, in page order then slot order, so
/// entry i corresponds to row ordinal i of the relation.
///
/// `key_hashes` is TupleView::HashAttrs over the join attributes —
/// bit-compatible with Tuple::HashAttrs, NULL == NULL included, and
/// finish-mixed, so any bit window of it is usable as a radix digit.
/// `starts`/`ends` are the record's valid-time interval, and `rows` the
/// original row ordinal (identity after extraction; the radix passes
/// permute all four arrays together).
struct JoinColumns {
  std::vector<uint64_t> key_hashes;
  std::vector<Chronon> starts;
  std::vector<Chronon> ends;
  std::vector<uint32_t> rows;

  size_t num_rows() const { return rows.size(); }

  /// Capacity for `n` rows, grown geometrically (see GrowCapacity).
  void Reserve(size_t n) {
    GrowCapacity(&key_hashes, n);
    GrowCapacity(&starts, n);
    GrowCapacity(&ends, n);
    GrowCapacity(&rows, n);
  }

  void Resize(size_t n) {
    key_hashes.resize(n);
    starts.resize(n);
    ends.resize(n);
    rows.resize(n);
  }
};

/// Per-row footprint the extractor charges against the in-memory budget:
/// the four column entries plus the pinned TupleView.
inline constexpr uint64_t kColumnRowBytes =
    sizeof(uint64_t) + 2 * sizeof(Chronon) + sizeof(uint32_t) +
    sizeof(TupleView);

/// Extracts join-key hash, valid-time interval and row-position columns
/// from a stream of pages, pinning each page so the per-row TupleViews
/// stay valid for the consuming join phase (the emit step re-reads record
/// bytes through them).
///
/// Pages are pinned in a deque — growth never moves existing elements —
/// exactly like PageTupleArena, but extraction also fills the flat
/// JoinColumns arrays in the same walk, so the radix partitioner never
/// touches record bytes again until result emission.
///
/// The schema passed to the constructor must outlive the extractor (its
/// cached RecordLayout backs every view).
class ColumnExtractor {
 public:
  /// `key_attrs` are the join-attribute positions hashed into
  /// JoinColumns::key_hashes; kept by pointer, caller owns.
  ColumnExtractor(const Schema* schema, const std::vector<size_t>* key_attrs)
      : schema_(schema), key_attrs_(key_attrs) {}

  ColumnExtractor(const ColumnExtractor&) = delete;
  ColumnExtractor& operator=(const ColumnExtractor&) = delete;

  /// Pins `page` and appends one column entry + view per record. Returns
  /// the number of records appended, or the first record-corruption error
  /// (the page is dropped again, leaving the extractor consistent).
  StatusOr<size_t> AddPage(const Page& page);

  /// The extracted columns; rows[i] == i until a partitioner permutes a
  /// copy.
  const JoinColumns& columns() const { return cols_; }
  JoinColumns& columns() { return cols_; }

  /// Row ordinal -> validated view over the pinned record bytes.
  const std::vector<TupleView>& views() const { return views_; }

  size_t num_rows() const { return views_.size(); }
  size_t num_pages() const { return pages_.size(); }

  /// Exact bytes of pinned pages plus per-row column/view state. This is
  /// the number the radix join charges against its memory budget — it is
  /// deterministic (no allocator slack is counted), so budget-driven
  /// fallback decisions reproduce across runs and platforms with the same
  /// type sizes.
  uint64_t footprint_bytes() const {
    return static_cast<uint64_t>(pages_.size()) * kPageSize +
           static_cast<uint64_t>(views_.size()) * kColumnRowBytes;
  }

  /// Invalidates all views and columns handed out so far.
  void Clear() {
    pages_.clear();
    views_.clear();
    cols_ = JoinColumns{};
  }

 private:
  const Schema* schema_;
  const std::vector<size_t>* key_attrs_;
  std::deque<Page> pages_;
  std::vector<TupleView> views_;
  JoinColumns cols_;
};

}  // namespace tempo

#endif  // TEMPO_RELATION_COLUMN_EXTRACT_H_
