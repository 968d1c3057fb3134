#include <gtest/gtest.h>

#include "join/append_only_tree.h"
#include "join/external_sort.h"
#include "join/indexed_join.h"
#include "join/reference_join.h"
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

std::unique_ptr<StoredRelation> MakeSorted(Disk* disk, size_t n,
                                           double long_lived_prob,
                                           uint64_t seed,
                                           const std::string& name) {
  Random rng(seed);
  std::vector<Tuple> tuples = RandomTuples(rng, n, 20, 2000,
                                           long_lived_prob);
  std::sort(tuples.begin(), tuples.end(), [](const Tuple& a, const Tuple& b) {
    return IntervalStartLess()(a.interval(), b.interval());
  });
  return MakeRelation(disk, TestSchema(), tuples, name);
}

TEST(AppendOnlyTreeTest, BuildsOverSortedRelation) {
  Disk disk;
  auto rel = MakeSorted(&disk, 3000, 0.2, 1, "r");
  TEMPO_ASSERT_OK_AND_ASSIGN(auto tree, AppendOnlyTree::Build(rel.get(), "r"));
  EXPECT_EQ(tree->num_data_pages(), rel->num_pages());
  EXPECT_GE(tree->height(), 1u);
  EXPECT_GT(tree->num_node_pages(), 0u);
  EXPECT_GT(tree->max_duration(), 1);
  TEMPO_ASSERT_OK(tree->Drop());
}

TEST(AppendOnlyTreeTest, RejectsUnsortedRelation) {
  Disk disk;
  auto rel = MakeRelation(&disk, TestSchema(),
                          {T(1, "a", 100, 101), T(2, "b", 5, 6)}, "r");
  EXPECT_EQ(AppendOnlyTree::Build(rel.get(), "r").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(AppendOnlyTreeTest, BoundsBracketEveryProbe) {
  Disk disk;
  auto rel = MakeSorted(&disk, 5000, 0.1, 2, "r");
  TEMPO_ASSERT_OK_AND_ASSIGN(auto tree, AppendOnlyTree::Build(rel.get(), "r"));
  BufferManager pool(&disk, 8);

  // Collect each page's true first Vs.
  std::vector<Chronon> first_vs;
  for (uint32_t p = 0; p < rel->num_pages(); ++p) {
    TEMPO_ASSERT_OK_AND_ASSIGN(auto tuples, rel->ReadPageTuples(p));
    ASSERT_FALSE(tuples.empty());
    first_vs.push_back(tuples.front().interval().start());
  }

  Random rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    Chronon t = rng.UniformRange(-50, 2100);
    TEMPO_ASSERT_OK_AND_ASSIGN(uint32_t upper,
                               tree->UpperBoundPage(t, &pool));
    // Oracle: last page with first_vs <= t (or page 0 when none).
    uint32_t expected = 0;
    for (uint32_t p = 0; p < first_vs.size(); ++p) {
      if (first_vs[p] <= t) expected = p;
    }
    EXPECT_EQ(upper, expected) << "t=" << t;
    TEMPO_ASSERT_OK_AND_ASSIGN(uint32_t lower,
                               tree->LowerBoundPage(t, &pool));
    EXPECT_EQ(lower, expected > 0 ? expected - 1 : 0);
  }
  TEMPO_ASSERT_OK(tree->Drop());
}

TEST(AppendOnlyTreeTest, IncrementalAppendsExtendTheIndex) {
  Disk disk;
  auto rel = MakeSorted(&disk, 2000, 0.0, 4, "r");
  TEMPO_ASSERT_OK_AND_ASSIGN(auto tree, AppendOnlyTree::Build(rel.get(), "r"));
  uint32_t pages_before = tree->num_data_pages();
  // Simulate appending new data pages with ever-larger start times.
  for (uint32_t i = 0; i < 500; ++i) {
    TEMPO_ASSERT_OK(tree->AppendPage(10000 + i, pages_before + i));
  }
  EXPECT_EQ(tree->num_data_pages(), pages_before + 500);
  BufferManager pool(&disk, 8);
  TEMPO_ASSERT_OK_AND_ASSIGN(uint32_t page,
                             tree->UpperBoundPage(10250, &pool));
  EXPECT_EQ(page, pages_before + 250);
  TEMPO_ASSERT_OK(tree->Drop());
}

TEST(AppendOnlyTreeTest, AppendsChargeUpdateIo) {
  Disk disk;
  auto rel = MakeSorted(&disk, 2000, 0.0, 5, "r");
  TEMPO_ASSERT_OK_AND_ASSIGN(auto tree, AppendOnlyTree::Build(rel.get(), "r"));
  disk.accountant().Reset();
  TEMPO_ASSERT_OK(tree->AppendPage(99999, tree->num_data_pages()));
  // At least the rightmost leaf must be rewritten — the "additional
  // update costs" of maintaining an access path.
  EXPECT_GE(disk.accountant().stats().total_random() +
                disk.accountant().stats().total_sequential(),
            1u);
  TEMPO_ASSERT_OK(tree->Drop());
}

struct IndexedJoinCase {
  uint32_t buffer_pages;
  double long_lived_prob;
  uint64_t seed;
};

class IndexedJoinOracleTest
    : public ::testing::TestWithParam<IndexedJoinCase> {};

TEST_P(IndexedJoinOracleTest, MatchesReferenceJoin) {
  const IndexedJoinCase& c = GetParam();
  Random rng(c.seed);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 400, 25, 700,
                                             c.long_lived_prob);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 380, 25, 700, c.long_lived_prob)) {
    s_tuples.push_back(Tuple({t.value(0), t.value(1)}, t.interval()));
  }
  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  ExecOptions options;
  options.buffer_pages = c.buffer_pages;
  TEMPO_ASSERT_OK_AND_ASSIGN(JoinRunStats stats,
                             IndexedVtJoin(r.get(), s.get(), &out, options));
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> expected,
      ReferenceValidTimeJoin(TestSchema(), r_tuples, SSchema(), s_tuples));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
  EXPECT_EQ(stats.output_tuples, expected.size());
  EXPECT_TRUE(SameTupleMultiset(actual, expected));
  EXPECT_GT(stats.Get(Metric::kIndexNodePages), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexedJoinOracleTest,
    ::testing::Values(IndexedJoinCase{8, 0.0, 1}, IndexedJoinCase{8, 0.5, 2},
                      IndexedJoinCase{16, 0.2, 3},
                      IndexedJoinCase{64, 0.8, 4}),
    [](const ::testing::TestParamInfo<IndexedJoinCase>& info) {
      const IndexedJoinCase& c = info.param;
      return "b" + std::to_string(c.buffer_pages) + "_ll" +
             std::to_string(static_cast<int>(c.long_lived_prob * 10)) +
             "_s" + std::to_string(c.seed);
    });

TEST(IndexedJoinTest, LongLivedTuplesWidenScans) {
  auto scanned_at = [&](double llp) -> double {
    Random rng(9);
    Disk disk;
    std::vector<Tuple> r_tuples = RandomTuples(rng, 2000, 40, 5000, llp);
    std::vector<Tuple> s_tuples;
    for (const Tuple& t : RandomTuples(rng, 2000, 40, 5000, llp)) {
      s_tuples.push_back(Tuple({t.value(0), t.value(1)}, t.interval()));
    }
    auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
    auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
    auto layout = DeriveNaturalJoinLayout(TestSchema(), SSchema());
    StoredRelation out(&disk, layout->output, "out");
    out.SetCharged(false).ok();
    ExecOptions options;
    options.buffer_pages = 16;
    auto stats = IndexedVtJoin(r.get(), s.get(), &out, options);
    EXPECT_TRUE(stats.ok());
    return stats->Get(Metric::kInnerPagesScanned);
  };
  EXPECT_GT(scanned_at(0.4), scanned_at(0.0) * 2);
}

}  // namespace
}  // namespace tempo
