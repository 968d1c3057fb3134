// Microbenchmarks: the partition join's building blocks — boundary
// selection, cache estimation, Grace partitioning and the in-memory join
// kernel.

#include <algorithm>
#include <span>

#include <benchmark/benchmark.h>

#include "micro_util.h"

#include "core/choose_intervals.h"
#include "core/determine_part_intervals.h"
#include "core/estimate_cache.h"
#include "core/grace_partitioner.h"
#include "join/join_common.h"
#include "workload/generator.h"
#include "workload/paper_params.h"

namespace tempo {
namespace {

std::vector<Interval> MakeSamples(size_t n, double long_lived_frac,
                                  uint64_t seed) {
  Random rng(seed);
  std::vector<Interval> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(long_lived_frac)) {
      Chronon s = rng.UniformRange(0, 500000);
      out.push_back(Interval(s, s + 500000));
    } else {
      out.push_back(Interval::At(rng.UniformRange(0, 999999)));
    }
  }
  return out;
}

void BM_ChooseIntervals(benchmark::State& state) {
  auto samples = MakeSamples(static_cast<size_t>(state.range(0)), 0.2, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChooseIntervals(samples, 16).num_partitions());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChooseIntervals)->Arg(256)->Arg(4096)->Arg(65536);

void BM_CoverageIndexChoose(benchmark::State& state) {
  CoverageIndex index(MakeSamples(65536, 0.2, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.Choose(static_cast<uint32_t>(state.range(0))).num_partitions());
  }
}
BENCHMARK(BM_CoverageIndexChoose)->Arg(4)->Arg(64)->Arg(1024);

// The optimizer's growth pattern: the sample set grows by appending, in
// 16 batches up to range(0) samples, and the index is extended (and its
// segments re-derived) after each batch.
void BM_CoverageIndexExtend(benchmark::State& state) {
  const auto samples = MakeSamples(static_cast<size_t>(state.range(0)), 0.2, 2);
  const std::span<const Interval> all(samples);
  const size_t step = std::max<size_t>(1, samples.size() / 16);
  for (auto _ : state) {
    CoverageIndex index{std::span<const Interval>()};
    while (index.size() < all.size()) {
      const size_t take = std::min(step, all.size() - index.size());
      index.Extend(all.subspan(index.size(), take));
    }
    benchmark::DoNotOptimize(index.Choose(16).num_partitions());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CoverageIndexExtend)->Arg(8192)->Arg(65536);

// determinePartIntervals at the paper_join shape: the Section 4 generator
// at 1/32 scale (8192 tuples, 256 pages), a 32-page buffer and a 5:1
// random:sequential cost ratio. Sampling I/O is simulated, so this is the
// optimizer's CPU cost.
void BM_DeterminePartIntervals(benchmark::State& state) {
  Disk disk;
  WorkloadSpec spec;
  spec.num_tuples = paper::kTuplesPerRelation / 32;
  spec.num_long_lived = 16000 / 32;
  spec.lifespan = paper::kLifespan;
  spec.distinct_keys = paper::kDistinctKeys / 32;
  spec.tuple_bytes = paper::kTupleBytes;
  spec.seed = 1;
  auto rel = GenerateRelation(&disk, spec, "r");
  if (!rel.ok()) {
    state.SkipWithError(rel.status().ToString().c_str());
    return;
  }
  PartitionPlanOptions options;
  options.buffer_pages = 32;
  options.cost_model = CostModel::Ratio(5.0);
  uint64_t samples = 0;
  for (auto _ : state) {
    Random rng(7);
    auto plan = DeterminePartIntervals(rel->get(), options, &rng);
    benchmark::DoNotOptimize(plan.ok());
    if (plan.ok()) samples = plan->samples_drawn;
  }
  state.counters["samples"] = static_cast<double>(samples);
}
BENCHMARK(BM_DeterminePartIntervals)->Unit(benchmark::kMillisecond);

void BM_EstimateCacheSizes(benchmark::State& state) {
  auto samples = MakeSamples(static_cast<size_t>(state.range(0)), 0.3, 3);
  PartitionSpec spec = ChooseIntervals(samples, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EstimateCacheSizes(samples, 262144, 32.0, spec).size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EstimateCacheSizes)->Arg(4096)->Arg(65536);

void BM_GracePartition(benchmark::State& state) {
  Disk disk;
  WorkloadSpec spec;
  spec.num_tuples = 16384;
  spec.num_long_lived = 2048;
  spec.distinct_keys = 1024;
  spec.seed = 4;
  auto rel = GenerateRelation(&disk, spec, "r");
  auto samples = MakeSamples(2048, 0.1, 5);
  PartitionSpec pspec = ChooseIntervals(samples, 16);
  for (auto _ : state) {
    auto parts = GracePartition(rel->get(), pspec, 64,
                                PlacementPolicy::kLastOverlap, "p");
    benchmark::DoNotOptimize(parts.ok());
    if (parts.ok()) parts->Drop();
  }
  state.SetItemsProcessed(state.iterations() * spec.num_tuples);
}
BENCHMARK(BM_GracePartition);

void BM_HashProbeJoinKernel(benchmark::State& state) {
  Random rng(6);
  Schema schema = BenchSchema();
  std::vector<Tuple> build;
  for (int i = 0; i < 4096; ++i) {
    Chronon s = rng.UniformRange(0, 100000);
    build.push_back(MakeBenchTuple(static_cast<int64_t>(rng.Uniform(512)),
                                   Interval(s, s + 100), 64));
  }
  std::vector<size_t> keys{0};
  HashedTupleIndex index(&build, &keys);
  Tuple probe = MakeBenchTuple(37, Interval(500, 700), 64);
  for (auto _ : state) {
    uint64_t matches = 0;
    index.ForEachMatch(probe, keys, [&](const Tuple& t) {
      matches += t.interval().Overlaps(probe.interval()) ? 1 : 0;
    });
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_HashProbeJoinKernel);

}  // namespace
}  // namespace tempo

TEMPO_MICRO_MAIN("micro_core")
