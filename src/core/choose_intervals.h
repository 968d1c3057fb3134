#ifndef TEMPO_CORE_CHOOSE_INTERVALS_H_
#define TEMPO_CORE_CHOOSE_INTERVALS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/partition_spec.h"
#include "temporal/interval.h"

namespace tempo {

/// Algorithm chooseIntervals (Appendix A.3): derives a partitioning of
/// valid time from a set of sampled validity intervals such that each
/// partition covers (approximately) an equal share of the sampled
/// *chronon-coverage multiset* — the multiset containing every chronon of
/// every sampled interval. Long-lived samples therefore pull boundaries
/// apart in their region, equalizing expected partition cardinality.
///
/// The paper's pseudocode materializes and sorts that multiset; for
/// long-lived tuples that is O(duration) per sample, so this
/// implementation computes the same equi-depth quantile boundaries with an
/// endpoint sweep in O(samples · log samples): coverage is piecewise
/// constant between interval endpoints, and the q-th boundary is found by
/// walking the accumulated weight. The resulting spec is identical to what
/// the pseudocode's sorted multiset would yield.
///
/// The first and last partitions are extended to ±inf so the spec covers
/// the whole line even where no sample fell (the inner relation may have
/// tuples outside the sampled range).
///
/// Degenerate inputs collapse gracefully: fewer distinct boundary chronons
/// than requested partitions yields fewer partitions; empty samples or
/// num_partitions <= 1 yield the trivial single-partition spec.
///
/// Equivalent to CoverageIndex(samples).Choose(num_partitions).
PartitionSpec ChooseIntervals(const std::vector<Interval>& samples,
                              uint32_t num_partitions);

/// The sample set behind both of the optimizer's per-candidate questions —
/// "where do k equi-depth boundaries fall?" (Choose) and "how many samples
/// cross boundary b?" (CrossingCount, the tuple-cache estimate) — kept as
/// two sorted endpoint arrays: every sample's start chronon, ascending, and
/// every sample's end chronon, ascending.
///
/// determinePartIntervals grows its sample set by appending at every
/// candidate partition size, so the index grows the same way: Extend()
/// sorts only the newly drawn endpoints (O(a log a) for a new samples) and
/// merges each array in linearly (O(m)), then re-derives the piecewise-
/// constant coverage segments with one two-pointer walk over the two
/// arrays (O(m)). No endpoint is ever re-sorted, and nothing is allocated
/// per endpoint.
///
/// Choose(k) walks the segments' accumulated weight: O(k + segments).
/// CrossingCount(b) is two binary searches: a sample covers both b and
/// b+1 exactly when start <= b < end, and since end <= b implies
/// start <= b, the count is #{start <= b} - #{end <= b} — O(log m), so a
/// k-partition cache estimate costs O(k log m) rather than O(m log k).
class CoverageIndex {
 public:
  /// Indexes `samples`; an empty span starts an index for Extend() to
  /// grow. There is deliberately no default constructor, so a bare `{}`
  /// argument to EstimateCacheSizes still selects the sample-vector
  /// overload.
  explicit CoverageIndex(std::span<const Interval> samples) {
    Extend(samples);
  }

  /// Adds `added` to the indexed sample set. The optimizer passes the
  /// samples drawn since the last call, so after each call the index
  /// covers the sampler's whole draw-order prefix.
  void Extend(std::span<const Interval> added);

  /// Number of samples indexed.
  size_t size() const { return starts_.size(); }

  /// Same result as ChooseIntervals over the indexed samples.
  PartitionSpec Choose(uint32_t num_partitions) const;

  /// Number of indexed samples that cover both chronon `b` and `b + 1`,
  /// i.e. that a partition boundary after `b` splits.
  uint64_t CrossingCount(Chronon b) const;

 private:
  struct Segment {
    Chronon start;
    Chronon end;                   // inclusive
    int64_t coverage;              // > 0
    unsigned __int128 cum_before;  // multiset positions before this segment
  };

  void RebuildSegments();
  void AddSegment(Chronon start, Chronon end, int64_t coverage);

  std::vector<Chronon> starts_;  // ascending
  std::vector<Chronon> ends_;    // ascending
  std::vector<Segment> segments_;
  unsigned __int128 total_ = 0;
};

}  // namespace tempo

#endif  // TEMPO_CORE_CHOOSE_INTERVALS_H_
