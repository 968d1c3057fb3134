#include "core/estimate_cache.h"

#include <cmath>

#include "common/assert.h"

namespace tempo {

std::vector<uint64_t> EstimateCacheSizes(const CoverageIndex& index,
                                         uint64_t relation_tuples,
                                         double tuples_per_page,
                                         const PartitionSpec& spec) {
  TEMPO_CHECK(tuples_per_page > 0);
  const size_t n = spec.num_partitions();
  std::vector<uint64_t> pages(n, 0);
  if (index.size() == 0 || n <= 1) return pages;
  double scale =
      static_cast<double>(relation_tuples) / static_cast<double>(index.size());
  // Nothing is cached for the last partition: no boundary follows it.
  for (size_t p = 0; p + 1 < n; ++p) {
    uint64_t cached = index.CrossingCount(spec.partition(p).end());
    double est_tuples = static_cast<double>(cached) * scale;
    pages[p] =
        static_cast<uint64_t>(std::ceil(est_tuples / tuples_per_page));
  }
  return pages;
}

std::vector<uint64_t> EstimateCacheSizes(const std::vector<Interval>& samples,
                                         uint64_t relation_tuples,
                                         double tuples_per_page,
                                         const PartitionSpec& spec) {
  return EstimateCacheSizes(CoverageIndex(samples), relation_tuples,
                            tuples_per_page, spec);
}

}  // namespace tempo
