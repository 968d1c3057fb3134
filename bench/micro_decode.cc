// Microbenchmarks for the zero-copy record-view hot path: page decode
// into owning Tuples vs page-backed TupleViews, and join-key hashing
// throughput over both representations.

#include <benchmark/benchmark.h>

#include "micro_util.h"

#include "relation/tuple_view.h"
#include "storage/page.h"
#include "storage/page_arena.h"
#include "storage/stored_relation.h"
#include "workload/generator.h"

namespace tempo {
namespace {

/// One full page of bench records (key:int64, pad:string).
Page FillPage(const Schema& schema, uint64_t tuple_bytes) {
  Page page;
  int64_t key = 0;
  while (true) {
    Tuple t = MakeBenchTuple(key, Interval(key * 10, key * 10 + 500),
                             tuple_bytes);
    std::string record;
    t.SerializeTo(schema, &record);
    if (!page.AddRecord(record).has_value()) break;
    ++key;
  }
  return page;
}

void BM_PageDecodeOwning(benchmark::State& state) {
  Schema schema = BenchSchema();
  Page page = FillPage(schema, static_cast<uint64_t>(state.range(0)));
  std::vector<Tuple> out;
  for (auto _ : state) {
    out.clear();
    auto n = StoredRelation::DecodePageAppend(schema, page, &out);
    benchmark::DoNotOptimize(n.ok());
  }
  state.SetItemsProcessed(state.iterations() * page.num_records());
}
BENCHMARK(BM_PageDecodeOwning)->Arg(64)->Arg(256);

void BM_PageDecodeViews(benchmark::State& state) {
  Schema schema = BenchSchema();
  Page page = FillPage(schema, static_cast<uint64_t>(state.range(0)));
  PageTupleArena arena;
  for (auto _ : state) {
    arena.Clear();
    auto n = StoredRelation::DecodePageViews(schema, page, &arena);
    benchmark::DoNotOptimize(n.ok());
  }
  state.SetItemsProcessed(state.iterations() * page.num_records());
}
BENCHMARK(BM_PageDecodeViews)->Arg(64)->Arg(256);

// Pinning many pages in one fresh arena, as an external-sort chunk or a
// probe batch does: views() growth must stay amortized O(1) per record.
void BM_PageArenaAddPage(benchmark::State& state) {
  Schema schema = BenchSchema();
  Page page = FillPage(schema, 64);
  const auto pages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PageTupleArena arena;
    for (int p = 0; p < pages; ++p) {
      auto n = arena.AddPage(schema, page);
      benchmark::DoNotOptimize(n.ok());
    }
    benchmark::DoNotOptimize(arena.views().data());
  }
  state.SetItemsProcessed(state.iterations() * pages * page.num_records());
}
BENCHMARK(BM_PageArenaAddPage)->Arg(256)->Arg(2048)->Unit(
    benchmark::kMillisecond);

// Key-hash throughput: the probe loop's inner operation. The owning
// variant pays the full decode (string allocation included) before it
// can hash; the view variant hashes the record bytes in place.

void BM_KeyHashOwning(benchmark::State& state) {
  Schema schema = BenchSchema();
  Page page = FillPage(schema, static_cast<uint64_t>(state.range(0)));
  const std::vector<size_t> key_attrs = {0};
  std::vector<Tuple> decoded;
  for (auto _ : state) {
    decoded.clear();
    auto n = StoredRelation::DecodePageAppend(schema, page, &decoded);
    benchmark::DoNotOptimize(n.ok());
    size_t h = 0;
    for (const Tuple& t : decoded) h ^= t.HashAttrs(key_attrs);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() * page.num_records());
}
BENCHMARK(BM_KeyHashOwning)->Arg(64)->Arg(256);

void BM_KeyHashViews(benchmark::State& state) {
  Schema schema = BenchSchema();
  Page page = FillPage(schema, static_cast<uint64_t>(state.range(0)));
  const std::vector<size_t> key_attrs = {0};
  PageTupleArena arena;
  for (auto _ : state) {
    arena.Clear();
    auto n = StoredRelation::DecodePageViews(schema, page, &arena);
    benchmark::DoNotOptimize(n.ok());
    size_t h = 0;
    for (const TupleView& v : arena.views()) h ^= v.HashAttrs(key_attrs);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() * page.num_records());
}
BENCHMARK(BM_KeyHashViews)->Arg(64)->Arg(256);

// Interval-only access (partition routing reads nothing else).

void BM_IntervalScanOwning(benchmark::State& state) {
  Schema schema = BenchSchema();
  Page page = FillPage(schema, 64);
  std::vector<Tuple> decoded;
  for (auto _ : state) {
    decoded.clear();
    auto n = StoredRelation::DecodePageAppend(schema, page, &decoded);
    benchmark::DoNotOptimize(n.ok());
    Chronon acc = 0;
    for (const Tuple& t : decoded) acc += t.interval().start();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * page.num_records());
}
BENCHMARK(BM_IntervalScanOwning);

void BM_IntervalScanViews(benchmark::State& state) {
  Schema schema = BenchSchema();
  Page page = FillPage(schema, 64);
  const RecordLayout& layout = schema.layout();
  for (auto _ : state) {
    Chronon acc = 0;
    for (uint16_t slot = 0; slot < page.num_records(); ++slot) {
      std::string_view rec = page.GetRecord(slot);
      auto v = TupleView::Make(layout, rec.data(), rec.size());
      benchmark::DoNotOptimize(v.ok());
      acc += v->interval().start();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * page.num_records());
}
BENCHMARK(BM_IntervalScanViews);

}  // namespace
}  // namespace tempo

TEMPO_MICRO_MAIN("micro_decode")
