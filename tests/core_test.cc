#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/choose_intervals.h"
#include "core/determine_part_intervals.h"
#include "core/estimate_cache.h"
#include "core/grace_partitioner.h"
#include "core/partition_join.h"
#include "core/partition_spec.h"
#include "core/tuple_cache.h"
#include "join/reference_join.h"
#include "sampling/relation_sampler.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::MakeRelation;
using ::tempo::testing::RandomTuples;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

Schema SSchema() {
  return Schema({{"key", ValueType::kInt64}, {"dept", ValueType::kString}});
}

Tuple S(int64_t key, const std::string& dept, Chronon vs, Chronon ve) {
  return Tuple({Value(key), Value(dept)}, Interval(vs, ve));
}

// ---------------------------------------------------------------------
// PartitionSpec
// ---------------------------------------------------------------------

TEST(PartitionSpecTest, TrivialSpecCoversLine) {
  PartitionSpec spec;
  EXPECT_EQ(spec.num_partitions(), 1u);
  EXPECT_EQ(spec.IndexOf(0), 0u);
  EXPECT_EQ(spec.IndexOf(kChrononMin), 0u);
  EXPECT_EQ(spec.IndexOf(kChrononMax), 0u);
}

TEST(PartitionSpecTest, FromBoundaries) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10, 20}));
  ASSERT_EQ(spec.num_partitions(), 3u);
  EXPECT_EQ(spec.partition(0), Interval(kChrononMin, 10));
  EXPECT_EQ(spec.partition(1), Interval(11, 20));
  EXPECT_EQ(spec.partition(2), Interval(21, kChrononMax));
}

TEST(PartitionSpecTest, FromBoundariesRejectsUnsorted) {
  EXPECT_FALSE(PartitionSpec::FromBoundaries({20, 10}).ok());
  EXPECT_FALSE(PartitionSpec::FromBoundaries({10, 10}).ok());
  EXPECT_FALSE(PartitionSpec::FromBoundaries({kChrononMax}).ok());
}

TEST(PartitionSpecTest, FromIntervalsValidates) {
  EXPECT_TRUE(PartitionSpec::FromIntervals(
                  {Interval(kChrononMin, 5), Interval(6, kChrononMax)})
                  .ok());
  // Gap.
  EXPECT_FALSE(PartitionSpec::FromIntervals(
                   {Interval(kChrononMin, 5), Interval(7, kChrononMax)})
                   .ok());
  // Doesn't cover the line.
  EXPECT_FALSE(
      PartitionSpec::FromIntervals({Interval(0, kChrononMax)}).ok());
  EXPECT_FALSE(PartitionSpec::FromIntervals({}).ok());
}

TEST(PartitionSpecTest, IndexOfFindsContainingPartition) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10, 20, 30}));
  EXPECT_EQ(spec.IndexOf(-100), 0u);
  EXPECT_EQ(spec.IndexOf(10), 0u);
  EXPECT_EQ(spec.IndexOf(11), 1u);
  EXPECT_EQ(spec.IndexOf(20), 1u);
  EXPECT_EQ(spec.IndexOf(25), 2u);
  EXPECT_EQ(spec.IndexOf(31), 3u);
}

TEST(PartitionSpecTest, OverlapQueries) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10, 20, 30}));
  Interval long_lived(5, 25);
  EXPECT_EQ(spec.FirstOverlapping(long_lived), 0u);
  EXPECT_EQ(spec.LastOverlapping(long_lived), 2u);
  EXPECT_EQ(spec.OverlapCount(long_lived), 3u);
  Interval short_lived(15, 15);
  EXPECT_EQ(spec.OverlapCount(short_lived), 1u);
}

// ---------------------------------------------------------------------
// ChooseIntervals vs. the paper's materialized-multiset pseudocode
// ---------------------------------------------------------------------

// Oracle: literal A.3 — materialize the covered-chronon multiset, sort it,
// pick boundaries at equal positions.
std::vector<Chronon> MaterializedBoundaries(const std::vector<Interval>& samples,
                                            uint32_t n) {
  std::vector<Chronon> multiset;
  for (const Interval& iv : samples) {
    for (Chronon t = iv.start(); t <= iv.end(); ++t) multiset.push_back(t);
  }
  std::sort(multiset.begin(), multiset.end());
  std::vector<Chronon> bounds;
  if (multiset.empty()) return bounds;
  for (uint32_t q = 1; q < n; ++q) {
    size_t pos = (multiset.size() * q + n - 1) / n;  // ceil, 1-based
    if (pos == 0) pos = 1;
    Chronon b = multiset[pos - 1];
    if (b >= multiset.back()) continue;
    if (!bounds.empty() && b <= bounds.back()) continue;
    bounds.push_back(b);
  }
  return bounds;
}

class ChooseIntervalsPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ChooseIntervalsPropertyTest, MatchesMaterializedPseudocode) {
  Random rng(GetParam());
  std::vector<Interval> samples;
  size_t count = 5 + rng.Uniform(40);
  for (size_t i = 0; i < count; ++i) {
    Chronon s = rng.UniformRange(0, 60);
    Chronon e = s + rng.UniformRange(0, 20);
    samples.push_back(Interval(s, e));
  }
  uint32_t n = 2 + static_cast<uint32_t>(rng.Uniform(6));
  PartitionSpec spec = ChooseIntervals(samples, n);
  std::vector<Chronon> expected = MaterializedBoundaries(samples, n);
  ASSERT_EQ(spec.num_partitions(), expected.size() + 1)
      << "seed " << GetParam();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(spec.partition(i).end(), expected[i]) << "boundary " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChooseIntervalsPropertyTest,
                         ::testing::Range<uint64_t>(0, 40));

TEST(ChooseIntervalsTest, EmptySamplesGiveTrivialSpec) {
  EXPECT_EQ(ChooseIntervals({}, 8).num_partitions(), 1u);
}

TEST(ChooseIntervalsTest, OnePartitionIsTrivial) {
  EXPECT_EQ(ChooseIntervals({Interval(0, 10)}, 1).num_partitions(), 1u);
}

TEST(ChooseIntervalsTest, UniformSamplesGiveBalancedPartitions) {
  std::vector<Interval> samples;
  for (Chronon t = 0; t < 1000; ++t) samples.push_back(Interval::At(t));
  PartitionSpec spec = ChooseIntervals(samples, 4);
  ASSERT_EQ(spec.num_partitions(), 4u);
  // Interior boundaries near the quartiles.
  EXPECT_NEAR(static_cast<double>(spec.partition(0).end()), 250, 2);
  EXPECT_NEAR(static_cast<double>(spec.partition(1).end()), 500, 2);
  EXPECT_NEAR(static_cast<double>(spec.partition(2).end()), 750, 2);
}

TEST(ChooseIntervalsTest, IdenticalSamplesCollapse) {
  std::vector<Interval> samples(50, Interval::At(7));
  PartitionSpec spec = ChooseIntervals(samples, 8);
  // Only one distinct chronon: no valid interior boundary.
  EXPECT_EQ(spec.num_partitions(), 1u);
}

TEST(ChooseIntervalsTest, LongLivedSamplesPullBoundaries) {
  // 80 chronons of mass in [0,9], 90 in one long interval [10,99]: the
  // half-weight boundary falls inside the long interval, not at the
  // numeric midpoint of the sample starts — long-lived samples count in
  // proportion to their duration.
  std::vector<Interval> samples;
  for (int i = 0; i < 8; ++i) samples.push_back(Interval(0, 9));
  samples.push_back(Interval(10, 99));
  PartitionSpec spec = ChooseIntervals(samples, 2);
  ASSERT_EQ(spec.num_partitions(), 2u);
  EXPECT_GT(spec.partition(0).end(), 9);
}

// ---------------------------------------------------------------------
// EstimateCacheSizes
// ---------------------------------------------------------------------

TEST(EstimateCacheTest, NoLongLivedMeansNoCache) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10, 20}));
  std::vector<Interval> samples{Interval::At(5), Interval::At(15),
                                Interval::At(25)};
  auto pages = EstimateCacheSizes(samples, 300, 10.0, spec);
  EXPECT_EQ(pages, std::vector<uint64_t>({0, 0, 0}));
}

TEST(EstimateCacheTest, LongLivedCountedInAllButLastPartition) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10, 20}));
  // Spans all three partitions: cached for partitions 0 and 1.
  std::vector<Interval> samples{Interval(5, 25)};
  auto pages = EstimateCacheSizes(samples, 100, 10.0, spec);
  // Scale: 100 tuples / 1 sample = 100 estimated tuples, 10/page.
  EXPECT_EQ(pages[0], 10u);
  EXPECT_EQ(pages[1], 10u);
  EXPECT_EQ(pages[2], 0u);
}

TEST(EstimateCacheTest, ScalingBySampleFraction) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10}));
  // 2 of 4 samples overlap both partitions.
  std::vector<Interval> samples{Interval(5, 15), Interval(8, 12),
                                Interval::At(3), Interval::At(14)};
  auto pages = EstimateCacheSizes(samples, 400, 10.0, spec);
  // (2/4) * 400 = 200 tuples -> 20 pages for partition 0.
  EXPECT_EQ(pages[0], 20u);
  EXPECT_EQ(pages[1], 0u);
}

TEST(EstimateCacheTest, EmptySamples) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10}));
  auto pages = EstimateCacheSizes({}, 400, 10.0, spec);
  EXPECT_EQ(pages, std::vector<uint64_t>({0, 0}));
}

// ---------------------------------------------------------------------
// CoverageIndex: incremental growth vs. from-scratch references
// ---------------------------------------------------------------------

// Oracle for endpoints the materialized multiset cannot hold (kChrononMin,
// kChrononMax): the endpoint-delta map construction, rebuilt from scratch.
// Coverage runs between consecutive change points; a run still open after
// the last finite change point (samples ending at kChrononMax) weighs one
// chronon.
std::vector<Chronon> EndpointDeltaBoundaries(
    const std::vector<Interval>& samples, uint32_t n) {
  std::map<Chronon, int64_t> deltas;
  for (const Interval& iv : samples) {
    deltas[iv.start()] += 1;
    if (iv.end() != kChrononMax) deltas[iv.end() + 1] -= 1;
  }
  struct Run {
    Chronon start;
    Chronon end;
    int64_t coverage;
    unsigned __int128 before;
  };
  std::vector<Run> runs;
  unsigned __int128 total = 0;
  int64_t coverage = 0;
  for (auto it = deltas.begin(); it != deltas.end();) {
    const Chronon start = it->first;
    coverage += it->second;
    ++it;
    const Chronon end = it == deltas.end() ? start : it->first - 1;
    if (coverage <= 0) continue;
    runs.push_back({start, end, coverage, total});
    total += (static_cast<unsigned __int128>(static_cast<uint64_t>(end) -
                                             static_cast<uint64_t>(start)) +
              1) *
             static_cast<unsigned __int128>(coverage);
  }
  std::vector<Chronon> bounds;
  if (runs.empty()) return bounds;
  for (uint32_t q = 1; q < n; ++q) {
    unsigned __int128 target = (total * q + n - 1) / n;  // ceil, 1-based
    if (target == 0) target = 1;
    size_t r = 0;
    while (r + 1 < runs.size() && runs[r + 1].before < target) ++r;
    const unsigned __int128 offset =
        (target - runs[r].before - 1) /
        static_cast<unsigned __int128>(runs[r].coverage);
    const Chronon b = static_cast<Chronon>(
        static_cast<uint64_t>(runs[r].start) + static_cast<uint64_t>(offset));
    if (b >= runs.back().end) continue;
    if (!bounds.empty() && b <= bounds.back()) continue;
    bounds.push_back(b);
  }
  return bounds;
}

// Oracle: estimateCacheSizes as a difference array over each sample's
// [first, last) overlapping partitions — O(samples · log k).
std::vector<uint64_t> DifferenceArrayCacheSizes(
    const std::vector<Interval>& samples, uint64_t relation_tuples,
    double tuples_per_page, const PartitionSpec& spec) {
  const size_t n = spec.num_partitions();
  if (samples.empty() || n <= 1) return std::vector<uint64_t>(n, 0);
  std::vector<int64_t> diff(n + 1, 0);
  for (const Interval& iv : samples) {
    size_t first = spec.FirstOverlapping(iv);
    size_t last = spec.LastOverlapping(iv);
    if (first < last) {
      diff[first] += 1;
      diff[last] -= 1;
    }
  }
  double scale = static_cast<double>(relation_tuples) /
                 static_cast<double>(samples.size());
  std::vector<uint64_t> pages(n, 0);
  int64_t running = 0;
  for (size_t p = 0; p < n; ++p) {
    running += diff[p];
    pages[p] = static_cast<uint64_t>(
        std::ceil(static_cast<double>(running) * scale / tuples_per_page));
  }
  return pages;
}

std::vector<Chronon> Boundaries(const PartitionSpec& spec) {
  std::vector<Chronon> out;
  for (size_t i = 0; i + 1 < spec.num_partitions(); ++i) {
    out.push_back(spec.partition(i).end());
  }
  return out;
}

// One random sample for the growth test: duplicates of earlier samples,
// points, short and heavily overlapping long intervals, and — with
// `extremes` — intervals reaching kChrononMin or kChrononMax.
Interval GrowthSample(Random& rng, const std::vector<Interval>& so_far,
                      bool extremes) {
  const Chronon s = rng.UniformRange(0, 60);
  switch (rng.Uniform(extremes ? 6 : 4)) {
    case 0:
      if (!so_far.empty()) return so_far[rng.Uniform(so_far.size())];
      return Interval::At(s);
    case 1:
      return Interval::At(s);
    case 2:
      return Interval(s, s + rng.UniformRange(20, 60));
    case 3:
      return Interval(s, s + rng.UniformRange(0, 5));
    case 4:
      return rng.Bernoulli(0.2) ? Interval::At(kChrononMin)
                                : Interval(kChrononMin, s);
    default:
      switch (rng.Uniform(3)) {
        case 0:
          return Interval::At(kChrononMax);
        case 1:
          return Interval(kChrononMin, kChrononMax);
        default:
          return Interval(s, kChrononMax);
      }
  }
}

// A spec whose boundaries sit on (and just before) sample endpoints, so
// cache counting meets start == b and end == b exactly.
PartitionSpec EndpointSpec(Random& rng, const std::vector<Interval>& samples) {
  std::vector<Chronon> bounds;
  for (int i = 0; i < 6; ++i) {
    const Interval& iv = samples[rng.Uniform(samples.size())];
    for (Chronon b : {iv.start(), iv.end()}) {
      if (b != kChrononMax) bounds.push_back(b);
      if (b != kChrononMin) bounds.push_back(b - 1);
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  auto spec = PartitionSpec::FromBoundaries(bounds);
  TEMPO_CHECK(spec.ok());
  return *std::move(spec);
}

class CoverageIndexGrowthTest : public ::testing::TestWithParam<uint64_t> {};

// Samples only ever grow by appending, as the optimizer draws them; after
// every batch the incrementally merged index must answer exactly as the
// from-scratch references over the same samples.
TEST_P(CoverageIndexGrowthTest, IncrementalMatchesFromScratch) {
  Random rng(GetParam());
  const bool extremes = GetParam() % 2 == 1;
  CoverageIndex index{std::span<const Interval>()};
  std::vector<Interval> samples;
  for (int batch = 0; batch < 8; ++batch) {
    const uint64_t size = 1 + rng.Uniform(rng.Bernoulli(0.3) ? 60 : 8);
    for (uint64_t i = 0; i < size; ++i) {
      samples.push_back(GrowthSample(rng, samples, extremes));
    }
    index.Extend(std::span(samples).subspan(index.size()));
    ASSERT_EQ(index.size(), samples.size());

    for (uint32_t k : {2u, 3u, 5u, 8u, 16u, 33u}) {
      SCOPED_TRACE(::testing::Message() << "seed " << GetParam() << " batch "
                                        << batch << " k " << k);
      PartitionSpec spec = index.Choose(k);
      EXPECT_EQ(Boundaries(spec), EndpointDeltaBoundaries(samples, k));
      if (!extremes) {
        EXPECT_EQ(Boundaries(spec), MaterializedBoundaries(samples, k));
      }
      EXPECT_EQ(spec, ChooseIntervals(samples, k));
      EXPECT_EQ(EstimateCacheSizes(index, 1000, 7.0, spec),
                DifferenceArrayCacheSizes(samples, 1000, 7.0, spec));
    }
    PartitionSpec edges = EndpointSpec(rng, samples);
    EXPECT_EQ(EstimateCacheSizes(index, 1000, 7.0, edges),
              DifferenceArrayCacheSizes(samples, 1000, 7.0, edges))
        << "seed " << GetParam() << " batch " << batch << " spec "
        << edges.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageIndexGrowthTest,
                         ::testing::Range<uint64_t>(0, 40));

TEST(CoverageIndexTest, CrossingCountCountsSamplesSplitAfterB) {
  std::vector<Interval> samples{Interval(0, 10), Interval(5, 5),
                                Interval(5, 6), Interval(kChrononMin, 5),
                                Interval(6, kChrononMax)};
  CoverageIndex index(samples);
  EXPECT_EQ(index.CrossingCount(-1), 1u);  // [min,5]
  EXPECT_EQ(index.CrossingCount(4), 2u);
  EXPECT_EQ(index.CrossingCount(5), 2u);   // [0,10], [5,6]
  EXPECT_EQ(index.CrossingCount(6), 2u);   // [0,10], [6,max]
  EXPECT_EQ(index.CrossingCount(10), 1u);  // [6,max]
  EXPECT_EQ(index.CrossingCount(kChrononMax), 0u);
}

// ---------------------------------------------------------------------
// DeterminePartIntervals
// ---------------------------------------------------------------------

class DeterminePlanTest : public ::testing::Test {
 protected:
  std::unique_ptr<StoredRelation> MakeBig(double long_lived_prob,
                                          uint64_t seed) {
    Random rng(seed);
    return MakeRelation(&disk_, TestSchema(),
                        RandomTuples(rng, 4000, 100, 5000, long_lived_prob),
                        "r" + std::to_string(seed));
  }

  Disk disk_;
};

TEST_F(DeterminePlanTest, FittingRelationGetsTrivialPlan) {
  auto rel = MakeBig(0.1, 1);
  PartitionPlanOptions options;
  options.buffer_pages = rel->num_pages() + 10;
  Random rng(9);
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionPlan plan,
                             DeterminePartIntervals(rel.get(), options, &rng));
  EXPECT_EQ(plan.num_partitions, 1u);
  EXPECT_EQ(plan.samples_drawn, 0u);
  EXPECT_EQ(plan.spec.num_partitions(), 1u);
}

TEST_F(DeterminePlanTest, BigRelationGetsMultiplePartitions) {
  auto rel = MakeBig(0.0, 2);
  PartitionPlanOptions options;
  options.buffer_pages = rel->num_pages() / 4;
  Random rng(9);
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionPlan plan,
                             DeterminePartIntervals(rel.get(), options, &rng));
  EXPECT_GT(plan.num_partitions, 1u);
  EXPECT_GT(plan.samples_drawn, 0u);
  EXPECT_EQ(plan.spec.num_partitions(), plan.num_partitions);
  // Estimated partition size must fit the area.
  EXPECT_LE(plan.part_size_pages, options.buffer_pages - 3);
}

TEST_F(DeterminePlanTest, ForcedPartitionCountHonored) {
  auto rel = MakeBig(0.0, 3);
  PartitionPlanOptions options;
  options.buffer_pages = rel->num_pages();
  options.forced_num_partitions = 5;
  Random rng(9);
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionPlan plan,
                             DeterminePartIntervals(rel.get(), options, &rng));
  EXPECT_EQ(plan.num_partitions, 5u);
}

TEST_F(DeterminePlanTest, PartitionsRoughlyBalanced) {
  auto rel = MakeBig(0.0, 4);
  PartitionPlanOptions options;
  options.buffer_pages = rel->num_pages() / 4;
  Random rng(10);
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionPlan plan,
                             DeterminePartIntervals(rel.get(), options, &rng));
  ASSERT_GT(plan.num_partitions, 1u);
  // Count tuples stored per partition (last-overlap placement).
  std::vector<uint64_t> counts(plan.num_partitions, 0);
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> all, rel->ReadAll());
  for (const Tuple& t : all) {
    ++counts[plan.spec.LastOverlapping(t.interval())];
  }
  uint64_t expected = all.size() / plan.num_partitions;
  for (uint64_t c : counts) {
    EXPECT_GT(c, expected / 3);
    EXPECT_LT(c, expected * 3);
  }
}

TEST_F(DeterminePlanTest, EmptyRelationTrivial) {
  auto rel = MakeRelation(&disk_, TestSchema(), {}, "empty");
  PartitionPlanOptions options;
  options.buffer_pages = 16;
  Random rng(1);
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionPlan plan,
                             DeterminePartIntervals(rel.get(), options, &rng));
  EXPECT_EQ(plan.num_partitions, 1u);
}

TEST_F(DeterminePlanTest, InScanCapsActualSamplingCost) {
  auto rel = MakeBig(0.2, 5);
  PartitionPlanOptions options;
  options.buffer_pages = std::max<uint32_t>(8, rel->num_pages() / 4);
  options.in_scan_sampling = true;
  Random rng(11);
  disk_.accountant().Reset();
  TEMPO_ASSERT_OK(DeterminePartIntervals(rel.get(), options, &rng).status());
  double cost = disk_.accountant().stats().Cost(options.cost_model);
  // Sampling can never exceed ~2 scans' worth under the in-scan rule
  // (random draws before the switch plus the scan itself).
  double scan = options.cost_model.random_weight + (rel->num_pages() - 1);
  EXPECT_LE(cost, 2.1 * scan);
}

// The optimizer grows one CoverageIndex across its candidates. Every cost
// point and every plan field must equal a from-scratch rebuild over the
// same samples: ChooseIntervals on the sample prefix each candidate saw
// and the difference-array cache estimate.
class PlanFromScratchTest : public ::testing::TestWithParam<uint64_t> {};

double ReferenceCacheCost(const std::vector<uint64_t>& pages,
                          const CostModel& model) {
  double cost = 0.0;
  for (uint64_t m : pages) {
    if (m == 0) continue;
    cost += 2.0 * (model.random_weight +
                   static_cast<double>(m - 1) * model.sequential_weight);
  }
  return cost;
}

TEST_P(PlanFromScratchTest, IncrementalIndexMatchesRebuild) {
  const uint64_t seed = GetParam();
  Disk disk;
  Random data_rng(seed);
  const double long_lived = 0.05 * static_cast<double>(seed % 5);
  auto rel = MakeRelation(&disk, TestSchema(),
                          RandomTuples(data_rng, 2000, 100, 5000, long_lived),
                          "r");
  const uint32_t pages = rel->num_pages();
  const uint64_t tuples = rel->num_tuples();
  const double tuples_per_page =
      static_cast<double>(tuples) / static_cast<double>(pages);
  for (uint32_t buffer : {pages / 8 + 4, pages / 4 + 3, pages / 2 + 2}) {
    for (bool in_scan : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " buffer "
                                        << buffer << " in_scan " << in_scan);
      PartitionPlanOptions options;
      options.buffer_pages = buffer;
      options.in_scan_sampling = in_scan;
      Random plan_rng(seed + 1000);
      Random curve_rng(seed + 1000);
      Random sample_rng(seed + 1000);
      TEMPO_ASSERT_OK_AND_ASSIGN(
          PartitionPlan plan,
          DeterminePartIntervals(rel.get(), options, &plan_rng));
      TEMPO_ASSERT_OK_AND_ASSIGN(
          std::vector<PartitionCostPoint> curve,
          PartitionCostCurve(rel.get(), options, &curve_rng));
      ASSERT_FALSE(curve.empty());

      // The same seed draws the same samples in the same order; a scan
      // makes every one of them available at once.
      RelationSampler sampler(rel.get(), &sample_rng);
      TEMPO_ASSERT_OK(sampler.SwitchToScan());
      TEMPO_ASSERT_OK(sampler.DrawRandom(plan.samples_drawn).status());
      const std::vector<Interval>& samples = sampler.samples();

      const PartitionCostPoint* best = nullptr;
      for (const PartitionCostPoint& point : curve) {
        std::vector<Interval> prefix(
            samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(
                                                   point.required_samples));
        PartitionSpec spec = ChooseIntervals(prefix, point.num_partitions);
        EXPECT_EQ(point.c_cache,
                  ReferenceCacheCost(
                      DifferenceArrayCacheSizes(prefix, tuples,
                                                tuples_per_page, spec),
                      options.cost_model))
            << "part size " << point.part_size_pages;
        if (best == nullptr || point.total() <= best->total()) best = &point;
      }
      EXPECT_EQ(plan.samples_drawn, curve.back().required_samples);
      EXPECT_EQ(plan.part_size_pages, best->part_size_pages);
      EXPECT_EQ(plan.spec, ChooseIntervals(samples, best->num_partitions));
      EXPECT_EQ(plan.num_partitions, plan.spec.num_partitions());
      EXPECT_EQ(plan.est_sample_cost, best->c_sample);
      EXPECT_EQ(plan.est_join_cost, best->c_partition + best->c_cache);
      EXPECT_EQ(plan.est_cache_pages,
                DifferenceArrayCacheSizes(samples, tuples, tuples_per_page,
                                          plan.spec));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanFromScratchTest,
                         ::testing::Range<uint64_t>(0, 40));

// ---------------------------------------------------------------------
// GracePartition
// ---------------------------------------------------------------------

class GracePartitionTest : public ::testing::Test {
 protected:
  Disk disk_;
};

TEST_F(GracePartitionTest, LastOverlapPlacement) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10, 20}));
  std::vector<Tuple> tuples{T(1, "a", 0, 5), T(2, "b", 15, 25),
                            T(3, "c", 5, 15), T(4, "d", 21, 30)};
  auto rel = MakeRelation(&disk_, TestSchema(), tuples, "r");
  TEMPO_ASSERT_OK_AND_ASSIGN(
      PartitionedRelation parts,
      GracePartition(rel.get(), spec, 16, PlacementPolicy::kLastOverlap, "r"));
  ASSERT_EQ(parts.parts.size(), 3u);
  EXPECT_EQ(parts.tuples_written, 4u);

  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> p0, parts.parts[0]->ReadAll());
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> p1, parts.parts[1]->ReadAll());
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> p2, parts.parts[2]->ReadAll());
  // (1) ends at 5 -> p0. (3) ends at 15 -> p1. (2) and (4) end past 20 -> p2.
  ASSERT_EQ(p0.size(), 1u);
  EXPECT_EQ(p0[0].value(0).AsInt64(), 1);
  ASSERT_EQ(p1.size(), 1u);
  EXPECT_EQ(p1[0].value(0).AsInt64(), 3);
  EXPECT_EQ(p2.size(), 2u);
  parts.Drop();
}

TEST_F(GracePartitionTest, ReplicatePlacement) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({10, 20}));
  std::vector<Tuple> tuples{T(1, "a", 5, 25)};  // spans all three
  auto rel = MakeRelation(&disk_, TestSchema(), tuples, "r");
  TEMPO_ASSERT_OK_AND_ASSIGN(
      PartitionedRelation parts,
      GracePartition(rel.get(), spec, 16, PlacementPolicy::kReplicate, "r"));
  EXPECT_EQ(parts.tuples_written, 3u);
  for (auto& p : parts.parts) {
    EXPECT_EQ(p->num_tuples(), 1u);
  }
  parts.Drop();
}

TEST_F(GracePartitionTest, RequiresBufferPerPartition) {
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({1, 2, 3, 4}));
  auto rel = MakeRelation(&disk_, TestSchema(), {}, "r");
  // 5 partitions need 6 pages.
  EXPECT_FALSE(
      GracePartition(rel.get(), spec, 5, PlacementPolicy::kLastOverlap, "r")
          .ok());
}

TEST_F(GracePartitionTest, EveryTupleLandsInItsLastOverlapPartition) {
  Random rng(31);
  std::vector<Tuple> tuples = RandomTuples(rng, 500, 20, 300, 0.3);
  auto rel = MakeRelation(&disk_, TestSchema(), tuples, "r");
  TEMPO_ASSERT_OK_AND_ASSIGN(PartitionSpec spec,
                             PartitionSpec::FromBoundaries({50, 120, 200}));
  TEMPO_ASSERT_OK_AND_ASSIGN(
      PartitionedRelation parts,
      GracePartition(rel.get(), spec, 16, PlacementPolicy::kLastOverlap, "r"));
  uint64_t total = 0;
  for (size_t i = 0; i < parts.parts.size(); ++i) {
    TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> in_part,
                               parts.parts[i]->ReadAll());
    total += in_part.size();
    for (const Tuple& t : in_part) {
      EXPECT_EQ(spec.LastOverlapping(t.interval()), i);
    }
  }
  EXPECT_EQ(total, tuples.size());
  parts.Drop();
}

// ---------------------------------------------------------------------
// TupleCache
// ---------------------------------------------------------------------

TEST(TupleCacheTest, SmallCacheStaysInMemory) {
  Disk disk;
  TupleCache cache(&disk, TestSchema(), "c");
  TEMPO_ASSERT_OK(cache.Add(T(1, "a", 0, 1)));
  TEMPO_ASSERT_OK(cache.Add(T(2, "b", 0, 1)));
  EXPECT_EQ(cache.spilled_pages(), 0u);
  EXPECT_EQ(cache.memory_tuples().size(), 2u);
  EXPECT_EQ(cache.num_tuples(), 2u);
}

TEST(TupleCacheTest, SpillsFullPages) {
  Disk disk;
  TupleCache cache(&disk, TestSchema(), "c");
  // ~120-byte records: ~34 fit a page.
  std::string pad(100, 'p');
  for (int i = 0; i < 200; ++i) {
    TEMPO_ASSERT_OK(cache.Add(T(i, pad, 0, 1)));
  }
  EXPECT_GT(cache.spilled_pages(), 3u);
  EXPECT_EQ(cache.num_tuples(), 200u);
  // Everything is retrievable: memory + spilled pages.
  uint64_t found = cache.memory_tuples().size();
  for (uint32_t p = 0; p < cache.spilled_pages(); ++p) {
    TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> page,
                               cache.ReadSpilledPage(p));
    found += page.size();
  }
  EXPECT_EQ(found, 200u);
}

TEST(TupleCacheTest, DiscardDropsSpill) {
  Disk disk;
  TupleCache cache(&disk, TestSchema(), "c");
  std::string pad(100, 'p');
  for (int i = 0; i < 100; ++i) TEMPO_ASSERT_OK(cache.Add(T(i, pad, 0, 1)));
  uint64_t pages_before = disk.TotalPages();
  EXPECT_GT(pages_before, 0u);
  TEMPO_ASSERT_OK(cache.Discard());
  EXPECT_EQ(disk.TotalPages(), 0u);
  EXPECT_EQ(cache.num_tuples(), 0u);
}

// ---------------------------------------------------------------------
// Partition join vs oracle (the headline correctness property)
// ---------------------------------------------------------------------

struct PartitionJoinCase {
  uint32_t buffer_pages;
  double long_lived_prob;
  PlacementPolicy placement;
  uint32_t forced_partitions;
  uint64_t seed;
};

class PartitionJoinOracleTest
    : public ::testing::TestWithParam<PartitionJoinCase> {};

TEST_P(PartitionJoinOracleTest, MatchesReferenceJoin) {
  const PartitionJoinCase& c = GetParam();
  Random rng(c.seed);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 400, 30, 600,
                                             c.long_lived_prob);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 350, 30, 600, c.long_lived_prob)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                         t.interval().start(), t.interval().end()));
  }

  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");

  PartitionJoinOptions options;
  options.buffer_pages = c.buffer_pages;
  options.placement = c.placement;
  options.forced_num_partitions = c.forced_partitions;
  options.seed = c.seed * 7 + 1;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             PartitionVtJoin(r.get(), s.get(), &out, options));

  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> expected,
      ReferenceValidTimeJoin(TestSchema(), r_tuples, SSchema(), s_tuples));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
  EXPECT_EQ(stats.output_tuples, expected.size());
  EXPECT_TRUE(SameTupleMultiset(actual, expected))
      << "got " << actual.size() << " tuples, want " << expected.size()
      << " (partitions=" << stats.Get(Metric::kPartitions) << ")";
}

std::vector<PartitionJoinCase> MakePartitionJoinCases() {
  std::vector<PartitionJoinCase> cases;
  for (uint32_t pages : {6u, 10u, 24u, 256u}) {
    for (double llp : {0.0, 0.3, 0.9}) {
      for (PlacementPolicy pol :
           {PlacementPolicy::kLastOverlap, PlacementPolicy::kReplicate}) {
        for (uint64_t seed : {1ull, 2ull, 3ull}) {
          cases.push_back({pages, llp, pol, 0, seed});
        }
      }
    }
  }
  // Forced partition counts stress migration depth.
  for (uint32_t forced : {2u, 3u, 7u}) {
    cases.push_back(
        {64, 0.5, PlacementPolicy::kLastOverlap, forced, 42});
    cases.push_back({64, 0.5, PlacementPolicy::kReplicate, forced, 42});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionJoinOracleTest,
    ::testing::ValuesIn(MakePartitionJoinCases()),
    [](const ::testing::TestParamInfo<PartitionJoinCase>& info) {
      const PartitionJoinCase& c = info.param;
      return "b" + std::to_string(c.buffer_pages) + "_ll" +
             std::to_string(static_cast<int>(c.long_lived_prob * 10)) +
             (c.placement == PlacementPolicy::kReplicate ? "_rep" : "_mig") +
             "_f" + std::to_string(c.forced_partitions) + "_s" +
             std::to_string(c.seed);
    });

// ---------------------------------------------------------------------
// Partition join behavioural properties
// ---------------------------------------------------------------------

TEST(PartitionJoinTest, EmitsEachPairExactlyOnceAcrossPartitions) {
  // Two long-lived tuples overlapping every partition: they co-reside in
  // several partition steps; the result must still be a single tuple.
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {T(1, "a", 0, 100)}, "r");
  auto s = MakeRelation(&disk, SSchema(), {S(1, "x", 0, 100)}, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  PartitionJoinOptions options;
  options.buffer_pages = 16;
  options.forced_num_partitions = 4;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             PartitionVtJoin(r.get(), s.get(), &out, options));
  EXPECT_EQ(stats.output_tuples, 1u);
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> result, out.ReadAll());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].interval(), Interval(0, 100));
}

TEST(PartitionJoinTest, CacheTrafficGrowsWithLongLivedTuples) {
  auto run = [](double llp) -> double {
    Random rng(77);
    Disk disk;
    auto r = MakeRelation(&disk, TestSchema(),
                          RandomTuples(rng, 3000, 50, 3000, llp), "r");
    std::vector<Tuple> s_tuples;
    for (const Tuple& t : RandomTuples(rng, 3000, 50, 3000, llp)) {
      s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                           t.interval().end()));
    }
    auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
    auto layout = DeriveNaturalJoinLayout(r->schema(), s->schema());
    StoredRelation out(&disk, layout->output, "out");
    out.SetCharged(false).ok();
    PartitionJoinOptions options;
    options.buffer_pages = 16;
    auto stats = PartitionVtJoin(r.get(), s.get(), &out, options);
    return stats->Get(Metric::kCacheTuples);
  };
  EXPECT_GT(run(0.5), run(0.0));
}

TEST(PartitionJoinTest, ReplicationWritesMoreStorage) {
  Random rng(78);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 2000, 50, 2000, 0.5);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 2000, 50, 2000, 0.5)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                         t.interval().end()));
  }
  auto run = [&](PlacementPolicy policy) -> double {
    Disk disk;
    auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
    auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
    auto layout = DeriveNaturalJoinLayout(r->schema(), s->schema());
    StoredRelation out(&disk, layout->output, "out");
    out.SetCharged(false).ok();
    PartitionJoinOptions options;
    options.buffer_pages = 32;
    options.placement = policy;
    options.forced_num_partitions = 8;
    auto stats = PartitionVtJoin(r.get(), s.get(), &out, options);
    return stats->Get(Metric::kTuplesWritten);
  };
  EXPECT_GT(run(PlacementPolicy::kReplicate),
            run(PlacementPolicy::kLastOverlap));
}

TEST(PartitionJoinTest, FitsInMemorySkipsPartitioning) {
  Random rng(79);
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(),
                        RandomTuples(rng, 200, 20, 500, 0.2), "r");
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 200, 20, 500, 0.2)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                         t.interval().end()));
  }
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  auto layout = DeriveNaturalJoinLayout(r->schema(), s->schema());
  StoredRelation out(&disk, layout->output, "out");
  TEMPO_ASSERT_OK(out.SetCharged(false));
  disk.accountant().Reset();
  PartitionJoinOptions options;
  options.buffer_pages = 4096;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             PartitionVtJoin(r.get(), s.get(), &out, options));
  EXPECT_EQ(stats.Get(Metric::kPartitions), 1.0);
  // Exactly one sequential pass over each input, nothing else.
  EXPECT_EQ(stats.io.total_ops(), r->num_pages() + s->num_pages());
  EXPECT_EQ(stats.io.random_reads, 2u);
}

TEST(PartitionJoinTest, OverflowChunksKeepCorrectness) {
  // Force a partitioning whose outer partitions exceed the area: with
  // buffer_pages=5 the area is 2 pages, but forced 2 partitions of a
  // 10-page relation are ~5 pages each.
  Random rng(80);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 800, 10, 400, 0.1);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 700, 10, 400, 0.1)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                         t.interval().end()));
  }
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  auto layout = DeriveNaturalJoinLayout(r->schema(), s->schema());
  StoredRelation out(&disk, layout->output, "out");
  PartitionJoinOptions options;
  options.buffer_pages = 5;
  options.forced_num_partitions = 2;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             PartitionVtJoin(r.get(), s.get(), &out, options));
  EXPECT_GT(stats.Get(Metric::kOverflowChunks), 0.0);
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> expected,
      ReferenceValidTimeJoin(TestSchema(), r_tuples, SSchema(), s_tuples));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
  EXPECT_TRUE(SameTupleMultiset(actual, expected));
}

TEST(PartitionJoinTest, PartitionFilesAreDroppedAfterJoin) {
  Random rng(81);
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(),
                        RandomTuples(rng, 1000, 20, 500, 0.2), "r");
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 1000, 20, 500, 0.2)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                         t.interval().end()));
  }
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  auto layout = DeriveNaturalJoinLayout(r->schema(), s->schema());
  StoredRelation out(&disk, layout->output, "out");
  uint64_t base_pages = disk.TotalPages();
  PartitionJoinOptions options;
  options.buffer_pages = 8;
  TEMPO_ASSERT_OK(PartitionVtJoin(r.get(), s.get(), &out, options).status());
  // Only the output remains beyond the inputs.
  EXPECT_EQ(disk.TotalPages(), base_pages + out.num_pages());
}

}  // namespace
}  // namespace tempo
