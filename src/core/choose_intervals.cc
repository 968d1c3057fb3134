#include "core/choose_intervals.h"

#include <algorithm>

namespace tempo {

void CoverageIndex::Extend(std::span<const Interval> added) {
  if (added.empty()) return;
  const size_t old_size = starts_.size();
  for (const Interval& iv : added) {
    starts_.push_back(iv.start());
    ends_.push_back(iv.end());
  }
  for (std::vector<Chronon>* sorted : {&starts_, &ends_}) {
    auto mid = sorted->begin() + static_cast<std::ptrdiff_t>(old_size);
    std::sort(mid, sorted->end());
    std::inplace_merge(sorted->begin(), mid, sorted->end());
  }
  RebuildSegments();
}

void CoverageIndex::RebuildSegments() {
  segments_.clear();
  total_ = 0;
  // Coverage rises at every start s and falls just past every end e, at
  // e + 1. Walking both arrays in chronon order, a start comes first
  // exactly when s <= e (s < e + 1 without forming e + 1, which overflows
  // for ends at kChrononMax). Each change point closes the open segment
  // [cur, change - 1], so the segments are the piecewise-constant coverage
  // runs; the total is the size of the covered-chronon multiset the
  // paper's pseudocode materializes.
  const size_t m = starts_.size();
  size_t i = 0;  // next start
  size_t j = 0;  // next end; j <= i, since an end never precedes its start
  int64_t coverage = 0;
  Chronon cur = 0;  // first chronon of the open segment
  while (i < m || (j < m && ends_[j] != kChrononMax)) {
    if (i < m && starts_[i] <= ends_[j]) {
      const Chronon s = starts_[i++];
      if (coverage > 0 && s > cur) AddSegment(cur, s - 1, coverage);
      ++coverage;
      cur = s;
    } else {
      const Chronon e = ends_[j++];
      if (e >= cur) AddSegment(cur, e, coverage);
      --coverage;
      cur = e + 1;
    }
  }
  // Samples still open here end at kChrononMax. Their run past the last
  // finite change point weighs as one chronon, so an open-ended sample
  // does not drag every boundary towards +inf.
  if (coverage > 0) AddSegment(cur, cur, coverage);
}

void CoverageIndex::AddSegment(Chronon start, Chronon end, int64_t coverage) {
  segments_.push_back(Segment{start, end, coverage, total_});
  // end - start may exceed INT64_MAX; the unsigned difference cannot wrap.
  const unsigned __int128 len =
      static_cast<unsigned __int128>(static_cast<uint64_t>(end) -
                                     static_cast<uint64_t>(start)) +
      1;
  total_ += len * static_cast<unsigned __int128>(coverage);
}

PartitionSpec CoverageIndex::Choose(uint32_t num_partitions) const {
  if (segments_.empty() || total_ == 0 || num_partitions <= 1) {
    return PartitionSpec();
  }
  // Equi-depth boundaries: the chronon at multiset position
  // ceil(W * q / n) for q = 1 .. n-1.
  std::vector<Chronon> boundaries;
  size_t seg_idx = 0;
  const Chronon global_max = segments_.back().end;
  for (uint32_t q = 1; q < num_partitions; ++q) {
    unsigned __int128 target =
        (total_ * q + num_partitions - 1) / num_partitions;  // ceil
    if (target == 0) target = 1;
    // Segments and targets are both increasing; advance monotonically.
    while (seg_idx + 1 < segments_.size() &&
           segments_[seg_idx + 1].cum_before < target) {
      ++seg_idx;
    }
    const Segment& seg = segments_[seg_idx];
    unsigned __int128 offset =
        (target - seg.cum_before - 1) /
        static_cast<unsigned __int128>(seg.coverage);
    Chronon boundary = static_cast<Chronon>(
        static_cast<uint64_t>(seg.start) + static_cast<uint64_t>(offset));
    if (boundary >= global_max) continue;  // would create an empty tail
    if (!boundaries.empty() && boundary <= boundaries.back()) continue;
    boundaries.push_back(boundary);
  }
  auto spec = PartitionSpec::FromBoundaries(boundaries);
  TEMPO_CHECK(spec.ok());
  return *std::move(spec);
}

uint64_t CoverageIndex::CrossingCount(Chronon b) const {
  const auto started =
      std::upper_bound(starts_.begin(), starts_.end(), b) - starts_.begin();
  const auto ended =
      std::upper_bound(ends_.begin(), ends_.end(), b) - ends_.begin();
  return static_cast<uint64_t>(started - ended);
}

PartitionSpec ChooseIntervals(const std::vector<Interval>& samples,
                              uint32_t num_partitions) {
  return CoverageIndex(samples).Choose(num_partitions);
}

}  // namespace tempo
