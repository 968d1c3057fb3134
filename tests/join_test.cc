#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "join/external_sort.h"
#include "join/join_common.h"
#include "join/nested_loop_join.h"
#include "join/reference_join.h"
#include "join/sort_merge_join.h"
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
// Reference join semantics
// ---------------------------------------------------------------------

TEST(ReferenceJoinTest, MatchesOnKeyAndOverlap) {
  std::vector<Tuple> r{T(1, "a", 0, 10), T(2, "b", 0, 10)};
  std::vector<Tuple> s{S(1, "x", 5, 15), S(2, "y", 20, 30), S(3, "z", 0, 10)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceValidTimeJoin(TestSchema(), r, SSchema(), s));
  // Only (1,a)x(1,x) matches: same key AND overlapping time.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value(0).AsInt64(), 1);
  EXPECT_EQ(out[0].value(1).AsString(), "a");
  EXPECT_EQ(out[0].value(2).AsString(), "x");
  EXPECT_EQ(out[0].interval(), Interval(5, 10));
}

TEST(ReferenceJoinTest, ResultIntervalIsMaximalOverlap) {
  std::vector<Tuple> r{T(1, "a", 3, 20)};
  std::vector<Tuple> s{S(1, "x", 0, 7)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceValidTimeJoin(TestSchema(), r, SSchema(), s));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].interval(), Interval(3, 7));
}

TEST(ReferenceJoinTest, TouchingEndpointsJoin) {
  std::vector<Tuple> r{T(1, "a", 0, 5)};
  std::vector<Tuple> s{S(1, "x", 5, 9)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceValidTimeJoin(TestSchema(), r, SSchema(), s));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].interval(), Interval(5, 5));
}

TEST(ReferenceJoinTest, AdjacentIntervalsDoNotJoin) {
  std::vector<Tuple> r{T(1, "a", 0, 4)};
  std::vector<Tuple> s{S(1, "x", 5, 9)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceValidTimeJoin(TestSchema(), r, SSchema(), s));
  EXPECT_TRUE(out.empty());
}

TEST(ReferenceJoinTest, DuplicateTuplesMultiplyOut) {
  std::vector<Tuple> r{T(1, "a", 0, 5), T(1, "a", 0, 5)};
  std::vector<Tuple> s{S(1, "x", 0, 5), S(1, "x", 0, 5)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceValidTimeJoin(TestSchema(), r, SSchema(), s));
  EXPECT_EQ(out.size(), 4u);
}

TEST(SameTupleMultisetTest, DetectsEqualityAndDifference) {
  std::vector<Tuple> a{T(1, "a", 0, 1), T(2, "b", 2, 3)};
  std::vector<Tuple> b{T(2, "b", 2, 3), T(1, "a", 0, 1)};
  EXPECT_TRUE(SameTupleMultiset(a, b));
  b.push_back(T(1, "a", 0, 1));
  EXPECT_FALSE(SameTupleMultiset(a, b));
  // Multiplicity matters.
  std::vector<Tuple> c{T(1, "a", 0, 1), T(1, "a", 0, 1)};
  std::vector<Tuple> d{T(1, "a", 0, 1), T(2, "b", 2, 3)};
  EXPECT_FALSE(SameTupleMultiset(c, d));
}

// ---------------------------------------------------------------------
// Shared harness for executor-vs-oracle comparisons
// ---------------------------------------------------------------------

struct ExecutorCase {
  const char* name;
  StatusOr<JoinRunStats> (*run)(StoredRelation*, StoredRelation*,
                                StoredRelation*, const ExecOptions&,
                                ExecContext*);
  uint32_t buffer_pages;
  double long_lived_prob;
  uint64_t seed;
};

class ExecutorOracleTest : public ::testing::TestWithParam<ExecutorCase> {};

TEST_P(ExecutorOracleTest, MatchesReferenceJoin) {
  const ExecutorCase& c = GetParam();
  Random rng(c.seed);
  std::vector<Tuple> r_tuples =
      RandomTuples(rng, 300, /*key_space=*/40, /*lifespan=*/500,
                   c.long_lived_prob);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 280, 40, 500, c.long_lived_prob)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                         t.interval().start(), t.interval().end()));
  }

  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(
      NaturalJoinLayout layout,
      DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");

  ExecOptions options;
  options.buffer_pages = c.buffer_pages;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             c.run(r.get(), s.get(), &out, options, nullptr));

  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> expected,
      ReferenceValidTimeJoin(TestSchema(), r_tuples, SSchema(), s_tuples));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
  EXPECT_EQ(stats.output_tuples, expected.size());
  EXPECT_TRUE(SameTupleMultiset(actual, expected))
      << c.name << ": got " << actual.size() << " tuples, want "
      << expected.size();
}

std::vector<ExecutorCase> MakeExecutorCases() {
  std::vector<ExecutorCase> cases;
  for (uint32_t pages : {4u, 6u, 16u, 64u}) {
    for (double llp : {0.0, 0.2, 0.8}) {
      for (uint64_t seed : {1ull, 2ull}) {
        cases.push_back(
            {"nested_loop", &NestedLoopVtJoin, pages, llp, seed});
        cases.push_back({"sort_merge", &SortMergeVtJoin, pages, llp, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExecutorOracleTest, ::testing::ValuesIn(MakeExecutorCases()),
    [](const ::testing::TestParamInfo<ExecutorCase>& info) {
      const ExecutorCase& c = info.param;
      return std::string(c.name) + "_b" + std::to_string(c.buffer_pages) +
             "_ll" + std::to_string(static_cast<int>(c.long_lived_prob * 10)) +
             "_s" + std::to_string(c.seed);
    });

// ---------------------------------------------------------------------
// Nested loop specifics
// ---------------------------------------------------------------------

TEST(NestedLoopTest, CostMatchesAnalyticPerFile) {
  Random rng(11);
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(),
                        RandomTuples(rng, 2000, 50, 1000, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 2000, 50, 1000, 0.1)) {
    s->Append(S(t.value(0).AsInt64(), "d", t.interval().start(),
                t.interval().end())).ok();
  }
  TEMPO_ASSERT_OK(s->Flush());

  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r->schema(), s->schema()));
  StoredRelation out(&disk, layout.output, "out");
  TEMPO_ASSERT_OK(out.SetCharged(false));

  for (uint32_t pages : {4u, 8u, 32u}) {
    disk.accountant().Reset();
    ExecOptions options;
    options.buffer_pages = pages;
    TEMPO_ASSERT_OK(out.Clear());
    TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                               NestedLoopVtJoin(r.get(), s.get(), &out, options));
    CostModel model = CostModel::Ratio(5.0);
    EXPECT_DOUBLE_EQ(
        stats.Cost(model),
        NestedLoopAnalyticCost(r->num_pages(), s->num_pages(), pages, model,
                               HeadModel::kPerFile))
        << "buffer=" << pages;
  }
}

TEST(NestedLoopTest, AnalyticSingleHeadChargesBlockSeeks) {
  CostModel m = CostModel::Ratio(10.0);
  double per_file = NestedLoopAnalyticCost(100, 100, 12, m,
                                           HeadModel::kPerFile);
  double single = NestedLoopAnalyticCost(100, 100, 12, m,
                                         HeadModel::kSingleHead);
  EXPECT_GT(single, per_file);
}

TEST(NestedLoopTest, MoreMemoryFewerBlocks) {
  CostModel m = CostModel::Ratio(5.0);
  EXPECT_GT(NestedLoopAnalyticCost(1000, 1000, 10, m),
            NestedLoopAnalyticCost(1000, 1000, 100, m));
}

TEST(NestedLoopTest, RejectsTinyBuffer) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {T(1, "a", 0, 1)}, "r");
  auto s = MakeRelation(&disk, SSchema(), {S(1, "x", 0, 1)}, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r->schema(), s->schema()));
  StoredRelation out(&disk, layout.output, "out");
  ExecOptions options;
  options.buffer_pages = 2;
  EXPECT_FALSE(NestedLoopVtJoin(r.get(), s.get(), &out, options).ok());
}

// ---------------------------------------------------------------------
// External sort
// ---------------------------------------------------------------------

class ExternalSortTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ExternalSortTest, SortsAndPreservesMultiset) {
  Random rng(GetParam() + 100);
  Disk disk;
  std::vector<Tuple> tuples = RandomTuples(rng, 3000, 100, 2000, 0.3);
  auto rel = MakeRelation(&disk, TestSchema(), tuples, "r");
  TEMPO_ASSERT_OK_AND_ASSIGN(SortedRelation sorted,
                             ExternalSortByVs(rel.get(), GetParam(), "r.s"));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> out,
                             sorted.relation->ReadAll());
  ASSERT_EQ(out.size(), tuples.size());
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_FALSE(IntervalStartLess()(out[i].interval(),
                                     out[i - 1].interval()))
        << "out of order at " << i;
  }
  EXPECT_TRUE(SameTupleMultiset(out, tuples));

  // Page metadata describes each page correctly.
  ASSERT_EQ(sorted.page_meta.size(), sorted.relation->num_pages());
  for (uint32_t p = 0; p < sorted.relation->num_pages(); ++p) {
    TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> page,
                               sorted.relation->ReadPageTuples(p));
    ASSERT_FALSE(page.empty());
    Chronon min_vs = page[0].interval().start();
    Chronon max_vs = page[0].interval().start();
    Chronon max_ve = page[0].interval().end();
    for (const Tuple& t : page) {
      min_vs = std::min(min_vs, t.interval().start());
      max_vs = std::max(max_vs, t.interval().start());
      max_ve = std::max(max_ve, t.interval().end());
    }
    EXPECT_EQ(sorted.page_meta[p].min_vs, min_vs);
    EXPECT_EQ(sorted.page_meta[p].max_vs, max_vs);
    EXPECT_EQ(sorted.page_meta[p].max_ve, max_ve);
  }
  disk.DeleteFile(sorted.relation->file_id()).ok();
}

INSTANTIATE_TEST_SUITE_P(BufferSizes, ExternalSortTest,
                         ::testing::Values(3, 4, 5, 8, 16, 64, 512));

TEST(ExternalSortTest2, EmptyRelation) {
  Disk disk;
  auto rel = MakeRelation(&disk, TestSchema(), {}, "r");
  TEMPO_ASSERT_OK_AND_ASSIGN(SortedRelation sorted,
                             ExternalSortByVs(rel.get(), 8, "r.s"));
  EXPECT_EQ(sorted.relation->num_tuples(), 0u);
  EXPECT_TRUE(sorted.page_meta.empty());
}

TEST(ExternalSortTest2, CleansUpTempRuns) {
  Random rng(5);
  Disk disk;
  auto rel = MakeRelation(&disk, TestSchema(),
                          RandomTuples(rng, 3000, 100, 2000, 0.0), "r");
  uint64_t before = disk.TotalPages();
  TEMPO_ASSERT_OK_AND_ASSIGN(SortedRelation sorted,
                             ExternalSortByVs(rel.get(), 4, "r.s"));
  // Only input + sorted output remain.
  EXPECT_EQ(disk.TotalPages(), before + sorted.relation->num_pages());
}

TEST(ExternalSortTest2, SmallBufferCostsMoreThanLarge) {
  Random rng(6);
  Disk disk;
  auto rel = MakeRelation(&disk, TestSchema(),
                          RandomTuples(rng, 5000, 100, 2000, 0.0), "r");
  disk.accountant().Reset();
  TEMPO_ASSERT_OK_AND_ASSIGN(SortedRelation s1,
                             ExternalSortByVs(rel.get(), 4, "a"));
  IoStats small = disk.accountant().stats();
  disk.accountant().Reset();
  TEMPO_ASSERT_OK_AND_ASSIGN(SortedRelation s2,
                             ExternalSortByVs(rel.get(), 256, "b"));
  IoStats large = disk.accountant().stats();
  EXPECT_GT(small.Cost(CostModel::Ratio(5.0)),
            large.Cost(CostModel::Ratio(5.0)));
}

// ---------------------------------------------------------------------
// Sort-merge specifics
// ---------------------------------------------------------------------

TEST(SortMergeTest, NoBackupWithoutLongLivedTuples) {
  Random rng(21);
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(),
                        RandomTuples(rng, 2000, 50, 5000, 0.0), "r");
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 2000, 50, 5000, 0.0)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                         t.interval().end()));
  }
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r->schema(), s->schema()));
  StoredRelation out(&disk, layout.output, "out");
  ExecOptions options;
  options.buffer_pages = 64;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             SortMergeVtJoin(r.get(), s.get(), &out, options));
  EXPECT_EQ(stats.Get(Metric::kBackupPageReads), 0.0);
}

TEST(SortMergeTest, LongLivedTuplesCauseBackupWhenMemoryTight) {
  Random rng(22);
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(),
                        RandomTuples(rng, 3000, 10, 3000, 0.4), "r");
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 3000, 10, 3000, 0.4)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                         t.interval().end()));
  }
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r->schema(), s->schema()));
  StoredRelation out(&disk, layout.output, "out");
  TEMPO_ASSERT_OK(out.SetCharged(false));
  ExecOptions options;
  options.buffer_pages = 6;  // tiny window
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             SortMergeVtJoin(r.get(), s.get(), &out, options));
  EXPECT_GT(stats.Get(Metric::kBackupPageReads), 0.0);
}

TEST(SortMergeTest, AmpleMemorySuppressesBackup) {
  Random rng(23);
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(),
                        RandomTuples(rng, 1500, 10, 3000, 0.4), "r");
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 1500, 10, 3000, 0.4)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), "d", t.interval().start(),
                         t.interval().end()));
  }
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r->schema(), s->schema()));
  StoredRelation out(&disk, layout.output, "out");
  ExecOptions options;
  options.buffer_pages = 4096;  // everything fits
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             SortMergeVtJoin(r.get(), s.get(), &out, options));
  EXPECT_EQ(stats.Get(Metric::kBackupPageReads), 0.0);
}

TEST(SortMergeTest, EmptyInputs) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {}, "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r->schema(), s->schema()));
  StoredRelation out(&disk, layout.output, "out");
  ExecOptions options;
  options.buffer_pages = 8;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             SortMergeVtJoin(r.get(), s.get(), &out, options));
  EXPECT_EQ(stats.output_tuples, 0u);
}

// ---------------------------------------------------------------------
// HashedTupleIndex
// ---------------------------------------------------------------------

TEST(HashedTupleIndexTest, FindsAllKeyMatches) {
  std::vector<Tuple> tuples{T(1, "a", 0, 1), T(2, "b", 0, 1), T(1, "c", 5, 9)};
  std::vector<size_t> key{0};
  HashedTupleIndex index(&tuples, &key);
  int found = 0;
  Tuple probe = S(1, "probe", 0, 100);
  index.ForEachMatch(probe, {0}, [&](const Tuple& t) {
    ++found;
    EXPECT_EQ(t.value(0).AsInt64(), 1);
  });
  EXPECT_EQ(found, 2);
}

TEST(HashedTupleIndexTest, RebuildRebinds) {
  std::vector<Tuple> a{T(1, "a", 0, 1)};
  std::vector<Tuple> b{T(2, "b", 0, 1)};
  std::vector<size_t> key{0};
  HashedTupleIndex index(&a, &key);
  index.Rebuild(&b);
  int found = 0;
  index.ForEachMatch(S(2, "p", 0, 1), {0}, [&](const Tuple&) { ++found; });
  EXPECT_EQ(found, 1);
}

// ---------------------------------------------------------------------
// PrepareJoin validation
// ---------------------------------------------------------------------

TEST(PrepareJoinTest, RejectsWrongOutputSchema) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {}, "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  StoredRelation out(&disk, TestSchema(), "out");  // wrong schema
  EXPECT_FALSE(PrepareJoin(r.get(), s.get(), &out).ok());
}

TEST(PrepareJoinTest, RejectsUnflushedInput) {
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), {}, "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  TEMPO_ASSERT_OK(r->Append(T(1, "a", 0, 1)));
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(r->schema(), s->schema()));
  StoredRelation out(&disk, layout.output, "out");
  EXPECT_EQ(PrepareJoin(r.get(), s.get(), &out).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace tempo
