// Tests for the in-memory columnar radix fast path: byte-identical output
// pages and identical charged IoStats vs the reference join at every
// thread count, skewed-key bucket overflow, degenerate inputs, the
// budget-driven fallback, and the TEMPO_RADIX_THRESHOLD_MB knob.

#include <cstdlib>
#include <cstring>

#include <gtest/gtest.h>

#include "core/planner.h"
#include "core/radix_join.h"
#include "join/reference_join.h"
#include "obs/explain.h"
#include "parallel/scheduler.h"
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

std::vector<Tuple> ToS(const std::vector<Tuple>& tuples) {
  std::vector<Tuple> out;
  out.reserve(tuples.size());
  for (const Tuple& t : tuples) {
    out.push_back(Tuple({t.value(0), t.value(1)}, t.interval()));
  }
  return out;
}

struct ExecRun {
  std::vector<Page> pages;
  IoStats io;
  uint64_t output_tuples = 0;
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
  ASSERT_EQ(a.pages.size(), b.pages.size()) << what;
  for (size_t p = 0; p < a.pages.size(); ++p) {
    EXPECT_EQ(std::memcmp(&a.pages[p], &b.pages[p], sizeof(Page)), 0)
        << what << ": output page " << p << " differs";
  }
}

/// The reference run: the oracle's result tuples appended in its
/// r-outer/s-inner emission order, with the charged I/O of the two
/// sequential input scans that fed it — exactly what the radix path
/// charges (its only I/O is one page scan per input).
ExecRun ReferenceRun(Disk* disk, StoredRelation* r, StoredRelation* s,
                     const Schema& out_schema) {
  ExecRun run;
  disk->accountant().Reset();
  auto r_tuples = r->ReadAll();
  auto s_tuples = s->ReadAll();
  EXPECT_TRUE(r_tuples.ok() && s_tuples.ok());
  run.io = disk->accountant().stats();
  auto expected =
      ReferenceValidTimeJoin(r->schema(), *r_tuples, s->schema(), *s_tuples);
  EXPECT_TRUE(expected.ok());
  StoredRelation out(disk, out_schema, "ref.out");
  EXPECT_TRUE(out.SetCharged(false).ok());
  EXPECT_TRUE(out.AppendAll(*expected).ok());
  run.output_tuples = expected->size();
  CapturePages(&out, &run);
  return run;
}

TEST(RadixJoinTest, ByteIdenticalAndIoIdenticalToReferenceAcrossThreads) {
  Disk disk;
  Random rng(11);
  auto r =
      MakeRelation(&disk, TestSchema(), RandomTuples(rng, 900, 40, 800, 0.2), "r");
  auto s =
      MakeRelation(&disk, SSchema(), ToS(RandomTuples(rng, 800, 40, 800, 0.2)), "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  ExecRun reference = ReferenceRun(&disk, r.get(), s.get(), layout.output);
  ASSERT_GT(reference.output_tuples, 0u);

  for (uint32_t threads : {1u, 2u, 4u}) {
    StoredRelation out(&disk, layout.output,
                       "radix.out.t" + std::to_string(threads));
    TEMPO_ASSERT_OK(out.SetCharged(false));
    disk.accountant().Reset();
    RadixJoinOptions options;
    options.buffer_pages = 4096;  // 16 MiB budget: everything fits
    Scheduler scheduler(SchedulerConfig{threads, /*morsel_pages=*/4});
    ExecContext ctx;
    ctx.SetScheduler(&scheduler);
    TEMPO_ASSERT_OK_AND_ASSIGN(
        JoinRunStats stats, RadixVtJoin(r.get(), s.get(), &out, options, &ctx));
    ExecRun run;
    run.io = stats.io;
    run.output_tuples = stats.output_tuples;
    CapturePages(&out, &run);
    ExpectSameRun(reference, run,
                  ("radix threads=" + std::to_string(threads)).c_str());
    EXPECT_GT(stats.Get(Metric::kRadixActFootprintBytes),
              stats.Get(Metric::kRadixEstFootprintBytes));
  }
}

TEST(RadixJoinTest, SkewedKeysOverflowOneBucket) {
  // Every tuple carries the same key: all rows land in one radix bucket no
  // matter how many passes run, far past the per-bucket target — the probe
  // must stay correct (and byte-identical) on the overflowing bucket.
  Disk disk;
  Random rng(13);
  std::vector<Tuple> r_tuples, s_tuples;
  for (int i = 0; i < 1500; ++i) {
    Chronon a = rng.UniformRange(0, 297);
    r_tuples.push_back(T(7, "r" + std::to_string(i), a, a + 2));
    Chronon b = rng.UniformRange(0, 297);
    s_tuples.push_back(S(7, "s" + std::to_string(i), b, b + 2));
  }
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  ExecRun reference = ReferenceRun(&disk, r.get(), s.get(), layout.output);
  ASSERT_GT(reference.output_tuples, 0u);

  for (uint32_t threads : {1u, 2u}) {
    StoredRelation out(&disk, layout.output,
                       "skew.out.t" + std::to_string(threads));
    TEMPO_ASSERT_OK(out.SetCharged(false));
    disk.accountant().Reset();
    RadixJoinOptions options;
    options.buffer_pages = 4096;
    options.bucket_target_bytes = 1024;  // forces at least one radix pass
    Scheduler scheduler(SchedulerConfig{threads, /*morsel_pages=*/4});
    ExecContext ctx;
    ctx.SetScheduler(&scheduler);
    TEMPO_ASSERT_OK_AND_ASSIGN(
        JoinRunStats stats, RadixVtJoin(r.get(), s.get(), &out, options, &ctx));
    EXPECT_GE(stats.Get(Metric::kRadixPasses), 1.0);
    EXPECT_EQ(stats.Get(Metric::kRadixBuckets), 1.0);  // all keys collide
    ExecRun run;
    run.io = stats.io;
    run.output_tuples = stats.output_tuples;
    CapturePages(&out, &run);
    ExpectSameRun(reference, run,
                  ("skew threads=" + std::to_string(threads)).c_str());
  }
}

TEST(RadixJoinTest, EmptySidesProduceEmptyOutput) {
  Disk disk;
  Random rng(17);
  auto r = MakeRelation(&disk, TestSchema(), RandomTuples(rng, 50, 5, 100, 0.0), "r");
  auto s_empty = MakeRelation(&disk, SSchema(), {}, "s_empty");
  auto r_empty = MakeRelation(&disk, TestSchema(), {}, "r_empty");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  RadixJoinOptions options;
  options.buffer_pages = 1024;
  {
    StoredRelation out(&disk, layout.output, "out1");
    TEMPO_ASSERT_OK(out.SetCharged(false));
    TEMPO_ASSERT_OK_AND_ASSIGN(
        JoinRunStats stats, RadixVtJoin(r.get(), s_empty.get(), &out, options));
    EXPECT_EQ(stats.output_tuples, 0u);
    EXPECT_EQ(out.num_tuples(), 0u);
  }
  {
    StoredRelation out(&disk, layout.output, "out2");
    TEMPO_ASSERT_OK(out.SetCharged(false));
    auto s = MakeRelation(&disk, SSchema(), ToS(RandomTuples(rng, 50, 5, 100, 0.0)), "s");
    TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                               RadixVtJoin(r_empty.get(), s.get(), &out, options));
    EXPECT_EQ(stats.output_tuples, 0u);
  }
  {
    StoredRelation out(&disk, layout.output, "out3");
    TEMPO_ASSERT_OK(out.SetCharged(false));
    TEMPO_ASSERT_OK_AND_ASSIGN(
        JoinRunStats stats,
        RadixVtJoin(r_empty.get(), s_empty.get(), &out, options));
    EXPECT_EQ(stats.output_tuples, 0u);
  }
}

TEST(RadixJoinTest, AllNullKeysJoinUnderNullEqualsNull) {
  // NULL == NULL in this system's join semantics; the key-hash columns
  // must preserve that (TupleView::HashAttrs hashes NULLs canonically), so
  // all-NULL sides degenerate to an interval-overlap cross product.
  Disk disk;
  std::vector<Tuple> r_tuples, s_tuples;
  for (int i = 0; i < 40; ++i) {
    r_tuples.push_back(Tuple({Value::Null(), Value("r" + std::to_string(i))},
                             Interval(i, i + 5)));
    s_tuples.push_back(Tuple({Value::Null(), Value("s" + std::to_string(i))},
                             Interval(i + 2, i + 6)));
  }
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  ExecRun reference = ReferenceRun(&disk, r.get(), s.get(), layout.output);
  ASSERT_GT(reference.output_tuples, 0u);

  StoredRelation out(&disk, layout.output, "null.out");
  TEMPO_ASSERT_OK(out.SetCharged(false));
  disk.accountant().Reset();
  RadixJoinOptions options;
  options.buffer_pages = 1024;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             RadixVtJoin(r.get(), s.get(), &out, options));
  ExecRun run;
  run.io = stats.io;
  run.output_tuples = stats.output_tuples;
  CapturePages(&out, &run);
  ExpectSameRun(reference, run, "all-null keys");
}

TEST(RadixJoinTest, BudgetExceededMidExtractReturnsResourceExhausted) {
  Disk disk;
  Random rng(19);
  auto r = MakeRelation(&disk, TestSchema(), RandomTuples(rng, 2000, 50, 900, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), ToS(RandomTuples(rng, 2000, 50, 900, 0.1)), "s");
  ASSERT_GT(r->num_pages(), 1u);
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  TEMPO_ASSERT_OK(out.SetCharged(false));
  RadixJoinOptions options;
  options.radix_budget_bytes = kPageSize;  // one page: dies mid-extract
  StatusOr<JoinRunStats> stats = RadixVtJoin(r.get(), s.get(), &out, options);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(out.num_tuples(), 0u);  // nothing was emitted before the abort
}

TEST(RadixJoinTest, ExecuteFallsBackToPagedGraceWhenBudgetExceeded) {
  // The planner's footprint estimate counts page bytes only; the real
  // footprint adds per-row column/view state. A budget wedged between the
  // two admits the radix plan, then forces the mid-extract fallback.
  Disk disk;
  Random rng(23);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 1200, 40, 700, 0.15);
  std::vector<Tuple> s_tuples = ToS(RandomTuples(rng, 1100, 40, 700, 0.15));
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  TEMPO_ASSERT_OK(out.SetCharged(false));

  ExecOptions options;
  options.buffer_pages = 256;
  options.radix_budget_bytes =
      EstimateRadixFootprintBytes(r->num_pages(), s->num_pages()) + 8;

  JoinPlan plan = PlanVtJoin(r.get(), s.get(), options);
  EXPECT_EQ(plan.algorithm, JoinExecutor::kInMemoryRadix);

  ExecContext ctx;
  TEMPO_ASSERT_OK_AND_ASSIGN(
      JoinRunStats stats,
      ExecutorRowOf(JoinExecutor::kAuto)
          .run(r.get(), s.get(), &out, options, &ctx));
  EXPECT_EQ(stats.Get(Metric::kPlannedAlgorithm), 3.0);
  EXPECT_EQ(stats.Get(Metric::kRadixFallback), 1.0);

  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> expected,
      ReferenceValidTimeJoin(TestSchema(), r_tuples, SSchema(), s_tuples));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
  EXPECT_TRUE(SameTupleMultiset(actual, expected));

  const std::string explain = ExplainAnalyze(ctx, ExplainOptions{});
  EXPECT_NE(explain.find("radix fallback"), std::string::npos) << explain;
  EXPECT_NE(explain.find("physical path: partition (radix fallback"),
            std::string::npos)
      << explain;
}

TEST(RadixJoinTest, ExplainRendersPhysicalPathAndRadixSpans) {
  Disk disk;
  Random rng(29);
  auto r = MakeRelation(&disk, TestSchema(), RandomTuples(rng, 400, 20, 400, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), ToS(RandomTuples(rng, 350, 20, 400, 0.1)), "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  TEMPO_ASSERT_OK(out.SetCharged(false));
  ExecOptions options;
  options.buffer_pages = 2048;
  ExecContext ctx;
  TEMPO_ASSERT_OK_AND_ASSIGN(
      JoinRunStats stats,
      ExecutorRowOf(JoinExecutor::kAuto)
          .run(r.get(), s.get(), &out, options, &ctx));
  EXPECT_EQ(stats.Get(Metric::kPlannedAlgorithm), 3.0);
  const std::string explain = ExplainAnalyze(ctx, ExplainOptions{});
  EXPECT_NE(explain.find("physical path: in-memory-radix"), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("radix_extract"), std::string::npos) << explain;
  EXPECT_NE(explain.find("radix_partition"), std::string::npos) << explain;
  EXPECT_NE(explain.find("radix_probe"), std::string::npos) << explain;
  EXPECT_NE(explain.find("budget"), std::string::npos) << explain;
}

// An adjacency predicate leaves the sweep as the planner's only finite
// candidate, and the physical-path line names it.
TEST(RadixJoinTest, ExplainRendersSweepPhysicalPath) {
  Disk disk;
  Random rng(31);
  auto r = MakeRelation(&disk, TestSchema(), RandomTuples(rng, 300, 20, 400, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), ToS(RandomTuples(rng, 300, 20, 400, 0.1)), "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  TEMPO_ASSERT_OK(out.SetCharged(false));
  ExecOptions options;
  options.buffer_pages = 16;
  options.predicate = TemporalPredicate::AnyOf(
      {AllenRelation::kMeets, AllenRelation::kMetBy});
  ExecContext ctx;
  TEMPO_ASSERT_OK_AND_ASSIGN(
      JoinRunStats stats,
      ExecutorRowOf(JoinExecutor::kAuto)
          .run(r.get(), s.get(), &out, options, &ctx));
  EXPECT_EQ(stats.Get(Metric::kPlannedAlgorithm), 4.0);
  const std::string explain = ExplainAnalyze(ctx, ExplainOptions{});
  EXPECT_NE(explain.find("physical path: sweep"), std::string::npos)
      << explain;
}

TEST(RadixJoinTest, BudgetKnobPrecedenceAndStrictParsing) {
  ExecOptions options;
  options.buffer_pages = 10;  // derived default: 10 pages = 40,960 B
  const uint64_t derived = 10ull * kPageSize;

  unsetenv("TEMPO_RADIX_THRESHOLD_MB");
  EXPECT_EQ(ResolveRadixBudgetBytes(options), derived);

  setenv("TEMPO_RADIX_THRESHOLD_MB", "8", 1);
  EXPECT_EQ(ResolveRadixBudgetBytes(options), 8ull << 20);

  // The explicit field wins over the env knob.
  options.radix_budget_bytes = 123456;
  EXPECT_EQ(ResolveRadixBudgetBytes(options), 123456u);
  options.radix_budget_bytes = 0;

  // Strict parsing: trailing garbage, zero and non-numeric values are
  // rejected (with a warning) and the derived default is used.
  for (const char* bad : {"16x", "8 ", "0", "-3", "banana", ""}) {
    setenv("TEMPO_RADIX_THRESHOLD_MB", bad, 1);
    EXPECT_EQ(ResolveRadixBudgetBytes(options), derived)
        << "value: \"" << bad << "\"";
  }
  unsetenv("TEMPO_RADIX_THRESHOLD_MB");
}

}  // namespace
}  // namespace tempo
