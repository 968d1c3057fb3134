// Tests for the morsel-driven parallel execution layer: the thread pool
// and ParallelFor primitives, the overflow-chunk path of the partition
// join under threading, and the headline guarantee that num_threads is
// invisible — byte-identical output and identical charged I/O.

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "core/partition_coalesce.h"
#include "core/partition_join.h"
#include "join/indexed_join.h"
#include "join/nested_loop_join.h"
#include "join/reference_join.h"
#include "join/sort_merge_join.h"
#include "obs/exec_context.h"
#include "parallel/parallel_for.h"
#include "parallel/scheduler.h"
#include "parallel/thread_pool.h"
#include "test_util.h"
#include "workload/generator.h"

namespace tempo {
namespace {

using ::tempo::testing::MakeRelation;
using ::tempo::testing::RandomTuples;
using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

// Executors take their thread count from the scheduler handle on the
// ExecContext now; this bundles the pair for the thread-sweep tests.
struct ScopedScheduler {
  explicit ScopedScheduler(uint32_t threads)
      : scheduler(SchedulerConfig{threads, /*morsel_pages=*/4}) {
    ctx.SetScheduler(&scheduler);
  }
  Scheduler scheduler;
  ExecContext ctx;
};

// ---------------------------------------------------------------------
// ThreadPool / TaskGroup
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 100; ++i) {
      group.Run([&counter] { counter.fetch_add(1); });
    }
    group.Wait();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    TaskGroup group(&pool);
    for (int i = 0; i < 50; ++i) {
      group.Run([&counter] { counter.fetch_add(1); });
    }
    // TaskGroup's destructor waits; the pool's destructor then joins.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(TaskGroupTest, NullPoolRunsInline) {
  std::atomic<int> counter{0};
  TaskGroup group(nullptr);
  group.Run([&counter] { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 1);  // already ran, before Wait()
  group.Wait();
  EXPECT_EQ(counter.load(), 1);
}

// ---------------------------------------------------------------------
// ParallelFor
// ---------------------------------------------------------------------

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (bool use_pool : {false, true}) {
    std::vector<std::atomic<int>> hits(97);
    for (auto& h : hits) h.store(0);
    MorselStats stats;
    Status st = ParallelFor(
        use_pool ? &pool : nullptr, hits.size(), 7,
        [&](size_t m, size_t begin, size_t end) -> Status {
          EXPECT_EQ(begin, m * 7);
          for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
          return Status::OK();
        },
        &stats);
    TEMPO_ASSERT_OK(st);
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
    EXPECT_EQ(stats.morsels_dispatched, (97 + 6) / 7);
    stats = MorselStats{};
  }
}

TEST(ParallelForTest, EmptyRangeIsOk) {
  TEMPO_ASSERT_OK(ParallelFor(nullptr, 0, 4,
                              [](size_t, size_t, size_t) -> Status {
                                ADD_FAILURE() << "must not be called";
                                return Status::OK();
                              }));
}

TEST(ParallelForTest, ReportsLowestIndexedError) {
  ThreadPool pool(4);
  Status st = ParallelFor(&pool, 20, 1,
                          [](size_t m, size_t, size_t) -> Status {
                            if (m == 7 || m == 13) {
                              return Status::Internal(
                                  "morsel " + std::to_string(m));
                            }
                            return Status::OK();
                          });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("morsel 7"), std::string::npos)
      << st.ToString();
}

// ---------------------------------------------------------------------
// Overflow-chunk path under threading (satellite: overflow coverage)
// ---------------------------------------------------------------------

Schema SSchema() {
  return Schema({{"key", ValueType::kInt64}, {"sval", ValueType::kString}});
}

Tuple S(int64_t key, const std::string& v, Chronon vs, Chronon ve) {
  return Tuple({Value(key), Value(v)}, Interval(vs, ve));
}

TEST(ParallelJoinTest, OverflowChunksMatchReferenceAcrossThreadCounts) {
  Random rng(99);
  // Wide pads make the outer partitions overflow a 1-page partition area
  // (buffer_pages=4 => reserved 3, area = 1 page payload).
  std::vector<Tuple> r_tuples;
  std::vector<Tuple> s_tuples;
  std::string pad(120, 'r');
  for (const Tuple& t : RandomTuples(rng, 300, 20, 600, 0.3)) {
    r_tuples.push_back(T(t.value(0).AsInt64(), pad, t.interval().start(),
                         t.interval().end()));
  }
  for (const Tuple& t : RandomTuples(rng, 250, 20, 600, 0.3)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "s", t.interval().start(),
                         t.interval().end()));
  }
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> expected,
      ReferenceValidTimeJoin(TestSchema(), r_tuples, SSchema(), s_tuples));

  for (uint32_t threads : {1u, 4u}) {
    Disk disk;
    auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
    auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
    TEMPO_ASSERT_OK_AND_ASSIGN(
        NaturalJoinLayout layout,
        DeriveNaturalJoinLayout(TestSchema(), SSchema()));
    StoredRelation out(&disk, layout.output, "out");

    PartitionJoinOptions options;
    options.buffer_pages = 4;
    options.forced_num_partitions = 2;
    ScopedScheduler sched(threads);
    TEMPO_ASSERT_OK_AND_ASSIGN(
        JoinRunStats stats,
        PartitionVtJoin(r.get(), s.get(), &out, options, &sched.ctx));

    EXPECT_GT(stats.Get(Metric::kOverflowChunks), 0.0)
        << "workload must exercise the chunked outer-area path";
    TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
    EXPECT_TRUE(SameTupleMultiset(actual, expected))
        << "threads=" << threads << " actual=" << actual.size()
        << " expected=" << expected.size();
  }
}

// ---------------------------------------------------------------------
// Determinism: threading must be invisible in output bytes and IoStats
// ---------------------------------------------------------------------

struct RunResult {
  std::vector<Page> out_pages;
  IoStats io;
  uint64_t output_tuples = 0;
};

RunResult RunSkewedPartitionJoin(uint32_t num_threads) {
  RunResult result;
  Disk disk;
  WorkloadSpec spec;
  spec.num_tuples = 2500;
  spec.num_long_lived = 500;  // long-lived tuples exercise the cache
  spec.lifespan = 50000;
  spec.distinct_keys = 100;
  spec.zipf_theta = 0.8;  // skewed keys => uneven probe morsels
  spec.tuple_bytes = 64;
  spec.seed = 7;
  auto r_or = GenerateRelation(&disk, spec, "r");
  spec.seed = 1007;
  auto s_gen_or = GenerateRelation(&disk, spec, "s");
  if (!r_or.ok() || !s_gen_or.ok()) {
    ADD_FAILURE() << "workload generation failed";
    return result;
  }
  std::unique_ptr<StoredRelation> r = *std::move(r_or);
  // Rename s's pad attribute so only "key" is a join attribute.
  Schema s_schema({{"key", ValueType::kInt64}, {"spad", ValueType::kString}});
  auto s = std::make_unique<StoredRelation>(&disk, s_schema, "s2");
  auto s_tuples = (*s_gen_or)->ReadAll();
  if (!s_tuples.ok()) {
    ADD_FAILURE() << s_tuples.status().ToString();
    return result;
  }
  for (const Tuple& t : *s_tuples) {
    if (!s->Append(t).ok()) return result;
  }
  if (!s->Flush().ok()) return result;
  disk.DeleteFile((*s_gen_or)->file_id()).ok();

  auto layout = DeriveNaturalJoinLayout(r->schema(), s->schema());
  if (!layout.ok()) {
    ADD_FAILURE() << layout.status().ToString();
    return result;
  }
  StoredRelation out(&disk, layout->output, "out");

  PartitionJoinOptions options;
  options.buffer_pages = 16;  // small memory => several partitions
  ScopedScheduler sched(num_threads);
  auto stats = PartitionVtJoin(r.get(), s.get(), &out, options, &sched.ctx);
  if (!stats.ok()) {
    ADD_FAILURE() << stats.status().ToString();
    return result;
  }
  result.io = stats->io;
  result.output_tuples = stats->output_tuples;
  result.out_pages.resize(out.num_pages());
  for (uint32_t p = 0; p < out.num_pages(); ++p) {
    auto st = out.ReadPage(p, &result.out_pages[p]);
    if (!st.ok()) ADD_FAILURE() << st.ToString();
  }
  return result;
}

TEST(ParallelJoinTest, ThreadCountIsInvisibleInOutputAndIoStats) {
  RunResult serial = RunSkewedPartitionJoin(1);
  ASSERT_GT(serial.output_tuples, 0u);
  ASSERT_FALSE(serial.out_pages.empty());
  for (uint32_t threads : {2u, 8u}) {
    RunResult parallel = RunSkewedPartitionJoin(threads);
    EXPECT_EQ(parallel.output_tuples, serial.output_tuples);
    EXPECT_TRUE(parallel.io == serial.io)
        << "threads=" << threads << " parallel=" << parallel.io.ToString()
        << " serial=" << serial.io.ToString();
    ASSERT_EQ(parallel.out_pages.size(), serial.out_pages.size());
    for (size_t p = 0; p < serial.out_pages.size(); ++p) {
      EXPECT_EQ(std::memcmp(&parallel.out_pages[p], &serial.out_pages[p],
                            sizeof(Page)),
                0)
          << "threads=" << threads << " output page " << p
          << " differs from the serial run";
    }
  }
}

TEST(ParallelJoinTest, SortMergeAgreesAcrossThreadCounts) {
  Random rng(5);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 500, 40, 800, 0.2);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 450, 40, 800, 0.2)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                         t.interval().start(), t.interval().end()));
  }
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> expected,
      ReferenceValidTimeJoin(TestSchema(), r_tuples, SSchema(), s_tuples));

  IoStats serial_io;
  for (uint32_t threads : {1u, 4u}) {
    Disk disk;
    auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
    auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
    TEMPO_ASSERT_OK_AND_ASSIGN(
        NaturalJoinLayout layout,
        DeriveNaturalJoinLayout(TestSchema(), SSchema()));
    StoredRelation out(&disk, layout.output, "out");
    ExecOptions options;
    options.buffer_pages = 8;  // forces real run formation + merges
    ScopedScheduler sched(threads);
    TEMPO_ASSERT_OK_AND_ASSIGN(
        JoinRunStats stats,
        SortMergeVtJoin(r.get(), s.get(), &out, options, &sched.ctx));
    TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
    EXPECT_TRUE(SameTupleMultiset(actual, expected)) << "threads=" << threads;
    if (threads == 1) {
      serial_io = stats.io;
    } else {
      EXPECT_TRUE(stats.io == serial_io)
          << "threads=" << threads << " io=" << stats.io.ToString()
          << " serial=" << serial_io.ToString();
    }
  }
}

// ---------------------------------------------------------------------
// Zero-copy view refactor lock: every executor must produce the same
// output bytes and charged I/O at any thread count, and must actually
// run its hot loop on page-backed views.
// ---------------------------------------------------------------------

struct ExecRun {
  std::vector<Page> pages;
  IoStats io;
  uint64_t output_tuples = 0;
  double views = 0;  // decode_materializations_avoided
};

void CapturePages(StoredRelation* out, ExecRun* run) {
  run->pages.resize(out->num_pages());
  for (uint32_t p = 0; p < out->num_pages(); ++p) {
    TEMPO_ASSERT_OK(out->ReadPage(p, &run->pages[p]));
  }
}

void ExpectSameRun(const ExecRun& a, const ExecRun& b, const char* what) {
  EXPECT_EQ(a.output_tuples, b.output_tuples) << what;
  EXPECT_TRUE(a.io == b.io) << what << ": " << a.io.ToString() << " vs "
                            << b.io.ToString();
  EXPECT_EQ(a.views, b.views) << what << ": view counts diverge";
  ASSERT_EQ(a.pages.size(), b.pages.size()) << what;
  for (size_t p = 0; p < a.pages.size(); ++p) {
    EXPECT_EQ(std::memcmp(&a.pages[p], &b.pages[p], sizeof(Page)), 0)
        << what << ": output page " << p << " differs";
  }
}

TEST(ZeroCopyLockTest, AllExecutorsByteIdenticalAcrossThreadCounts) {
  Random rng(21);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 800, 30, 900, 0.25);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 700, 30, 900, 0.25)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                         t.interval().start(), t.interval().end()));
  }

  using Runner = std::function<StatusOr<JoinRunStats>(
      StoredRelation*, StoredRelation*, StoredRelation*, uint32_t)>;
  struct Executor {
    const char* name;
    Runner run;
  };
  const std::vector<Executor> executors = {
      {"nested_loop",
       [](StoredRelation* r, StoredRelation* s, StoredRelation* out,
          uint32_t threads) {
         ExecOptions o;
         o.buffer_pages = 8;
         ScopedScheduler sched(threads);
         return NestedLoopVtJoin(r, s, out, o, &sched.ctx);
       }},
      {"sort_merge",
       [](StoredRelation* r, StoredRelation* s, StoredRelation* out,
          uint32_t threads) {
         ExecOptions o;
         o.buffer_pages = 8;
         ScopedScheduler sched(threads);
         return SortMergeVtJoin(r, s, out, o, &sched.ctx);
       }},
      {"indexed",
       [](StoredRelation* r, StoredRelation* s, StoredRelation* out,
          uint32_t threads) {
         ExecOptions o;
         o.buffer_pages = 12;
         ScopedScheduler sched(threads);
         return IndexedVtJoin(r, s, out, o, &sched.ctx);
       }},
      {"partition",
       [](StoredRelation* r, StoredRelation* s, StoredRelation* out,
          uint32_t threads) {
         PartitionJoinOptions o;
         o.buffer_pages = 8;  // forces several partitions + spill paths
         ScopedScheduler sched(threads);
         return PartitionVtJoin(r, s, out, o, &sched.ctx);
       }},
  };

  for (const Executor& exec : executors) {
    ExecRun reference;
    for (uint32_t threads : {1u, 4u}) {
      Disk disk;
      auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
      auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
      TEMPO_ASSERT_OK_AND_ASSIGN(
          NaturalJoinLayout layout,
          DeriveNaturalJoinLayout(TestSchema(), SSchema()));
      StoredRelation out(&disk, layout.output, "out");
      auto stats_or = exec.run(r.get(), s.get(), &out, threads);
      ASSERT_TRUE(stats_or.ok())
          << exec.name << ": " << stats_or.status().ToString();
      ExecRun run;
      run.io = stats_or->io;
      run.output_tuples = stats_or->output_tuples;
      run.views = stats_or->Get(Metric::kDecodeMaterializationsAvoided);
      CapturePages(&out, &run);
      EXPECT_GT(run.views, 0.0)
          << exec.name << " must stream views through its hot loop";
      EXPECT_GT(run.output_tuples, 0u) << exec.name;
      if (threads == 1) {
        reference = std::move(run);
      } else {
        ExpectSameRun(reference, run, exec.name);
      }
    }
  }
}

TEST(ZeroCopyLockTest, CoalesceByteIdenticalAcrossThreadCounts) {
  // Duplicate values with touching/overlapping intervals so coalescing
  // actually merges runs.
  Random rng(31);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 900; ++i) {
    int64_t key = static_cast<int64_t>(rng.Uniform(40));
    Chronon start = rng.UniformRange(0, 500);
    tuples.push_back(T(key, "grp" + std::to_string(key), start,
                       start + rng.UniformRange(1, 30)));
  }
  ExecRun reference;
  for (uint32_t threads : {1u, 4u}) {
    Disk disk;
    auto in = MakeRelation(&disk, TestSchema(), tuples, "in");
    StoredRelation out(&disk, TestSchema(), "out");
    PartitionJoinOptions o;
    o.buffer_pages = 8;
    o.forced_num_partitions = 3;  // exercise the carry-across path
    ScopedScheduler sched(threads);
    TEMPO_ASSERT_OK_AND_ASSIGN(
        JoinRunStats stats,
        PartitionCoalesce(in.get(), &out, o, &sched.ctx));
    ExecRun run;
    run.io = stats.io;
    run.output_tuples = stats.output_tuples;
    run.views = stats.Get(Metric::kDecodeMaterializationsAvoided);
    CapturePages(&out, &run);
    EXPECT_GT(run.views, 0.0);
    EXPECT_GT(run.output_tuples, 0u);
    EXPECT_LT(run.output_tuples, tuples.size());  // something coalesced
    if (threads == 1) {
      reference = std::move(run);
    } else {
      ExpectSameRun(reference, run, "coalesce");
    }
  }
}

// ---------------------------------------------------------------------
// DecodePageAppend (satellite: arena-reuse decode variant)
// ---------------------------------------------------------------------

TEST(DecodePageAppendTest, AppendsIntoArenaAndReportsCount) {
  Disk disk;
  std::vector<Tuple> tuples;
  for (int i = 0; i < 40; ++i) tuples.push_back(T(i, "v", i, i + 2));
  auto rel = MakeRelation(&disk, TestSchema(), tuples, "rel");
  ASSERT_GE(rel->num_pages(), 1u);

  std::vector<Tuple> arena;
  size_t total = 0;
  for (uint32_t p = 0; p < rel->num_pages(); ++p) {
    Page page;
    TEMPO_ASSERT_OK(rel->ReadPage(p, &page));
    TEMPO_ASSERT_OK_AND_ASSIGN(
        size_t added,
        StoredRelation::DecodePageAppend(TestSchema(), page, &arena));
    EXPECT_GT(added, 0u);
    total += added;
    EXPECT_EQ(arena.size(), total);  // appended, not replaced
  }
  EXPECT_EQ(total, tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(arena[i].value(0).AsInt64(), tuples[i].value(0).AsInt64());
  }
}

}  // namespace
}  // namespace tempo
