#include <cmath>

#include <gtest/gtest.h>

#include "core/planner.h"
#include "join/nested_loop_join.h"
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

TEST(PlannerEstimateTest, NestedLoopMatchesAnalytic) {
  CostModel m = CostModel::Ratio(5.0);
  EXPECT_DOUBLE_EQ(EstimateNestedLoopCost(100, 100, 12, m),
                   NestedLoopAnalyticCost(100, 100, 12, m));
}

TEST(PlannerEstimateTest, SortMergeCheaperWithMoreMemory) {
  CostModel m = CostModel::Ratio(5.0);
  EXPECT_GT(EstimateSortMergeCost(1000, 1000, 8, m),
            EstimateSortMergeCost(1000, 1000, 256, m));
}

TEST(PlannerEstimateTest, InMemoryPartitionJoinIsTwoPasses) {
  CostModel m = CostModel::Ratio(5.0);
  // Outer fits the area: one pass over each input.
  EXPECT_DOUBLE_EQ(EstimatePartitionJoinCost(50, 80, 64, m),
                   m.Cost(2, 128));
}

TEST(PlannerEstimateTest, PartitionJoinScalesLinearly) {
  CostModel m = CostModel::Ratio(5.0);
  double small = EstimatePartitionJoinCost(1000, 1000, 64, m);
  double big = EstimatePartitionJoinCost(4000, 4000, 64, m);
  EXPECT_GT(big, 3.5 * small);
  EXPECT_LT(big, 4.5 * small);
}

TEST(PlannerTest, PicksNestedLoopWhenOuterFitsInMemory) {
  Disk disk;
  Random rng(1);
  auto r = MakeRelation(&disk, TestSchema(), RandomTuples(rng, 200, 20, 500, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  for (const Tuple& t : RandomTuples(rng, 200, 20, 500, 0.1)) {
    s->Append(Tuple({t.value(0), t.value(1)}, t.interval())).ok();
  }
  TEMPO_ASSERT_OK(s->Flush());
  ExecOptions options;
  options.buffer_pages = 1024;  // everything fits
  JoinPlan plan = PlanVtJoin(r.get(), s.get(), options);
  // With the outer resident, nested-loops is a single pass over each
  // input — nothing can beat it (the in-memory partition path ties; both
  // are acceptable, but neither sort-merge).
  EXPECT_NE(plan.algorithm, JoinExecutor::kSortMerge);
}

TEST(PlannerTest, PicksPartitionInPaperRegime) {
  // Big inputs, modest memory: the paper's headline regime.
  Disk disk;
  Random rng(2);
  auto r = MakeRelation(&disk, TestSchema(),
                        RandomTuples(rng, 20000, 500, 5000, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  for (const Tuple& t : RandomTuples(rng, 20000, 500, 5000, 0.1)) {
    s->Append(Tuple({t.value(0), t.value(1)}, t.interval())).ok();
  }
  TEMPO_ASSERT_OK(s->Flush());
  ExecOptions options;
  options.buffer_pages = r->num_pages() / 16;
  JoinPlan plan = PlanVtJoin(r.get(), s.get(), options);
  EXPECT_EQ(plan.algorithm, JoinExecutor::kPartition);
  // Ranking is complete and sorted; the radix candidate is ineligible at
  // this memory budget (infinite cost), so it ranks last.
  ASSERT_EQ(plan.candidates.size(), 5u);
  EXPECT_LE(plan.candidates[0].estimated_cost,
            plan.candidates[1].estimated_cost);
  EXPECT_LE(plan.candidates[1].estimated_cost,
            plan.candidates[2].estimated_cost);
  EXPECT_LE(plan.candidates[2].estimated_cost,
            plan.candidates[3].estimated_cost);
  EXPECT_EQ(plan.candidates.back().algorithm, JoinExecutor::kInMemoryRadix);
  EXPECT_TRUE(std::isinf(plan.candidates.back().estimated_cost));
}

TEST(PlannerTest, PicksRadixWhenBothInputsFitTheBudget) {
  Disk disk;
  Random rng(7);
  auto r = MakeRelation(&disk, TestSchema(), RandomTuples(rng, 300, 20, 500, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  for (const Tuple& t : RandomTuples(rng, 300, 20, 500, 0.1)) {
    s->Append(Tuple({t.value(0), t.value(1)}, t.interval())).ok();
  }
  TEMPO_ASSERT_OK(s->Flush());
  ExecOptions options;
  options.buffer_pages = 1024;  // budget 1024 pages >> both inputs
  JoinPlan plan = PlanVtJoin(r.get(), s.get(), options);
  // The radix path ties nested-loops on estimated I/O (one pass over each
  // input) and wins the tie: columnar probing is the better in-memory plan.
  EXPECT_EQ(plan.algorithm, JoinExecutor::kInMemoryRadix);
  ASSERT_EQ(plan.candidates.size(), 5u);
}

TEST(PlannerTest, ExecuteProducesCorrectResultAndAnnotations) {
  Disk disk;
  Random rng(3);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 500, 30, 600, 0.2);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 450, 30, 600, 0.2)) {
    s_tuples.push_back(Tuple({t.value(0), t.value(1)}, t.interval()));
  }
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  ExecOptions options;
  options.buffer_pages = 16;
  TEMPO_ASSERT_OK_AND_ASSIGN(
      JoinRunStats stats, ExecutorRowOf(JoinExecutor::kAuto)
                              .run(r.get(), s.get(), &out, options, nullptr));
  EXPECT_TRUE(stats.Has(Metric::kPlannedAlgorithm));
  EXPECT_TRUE(stats.Has(Metric::kPlannedCost));

  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> expected,
      ReferenceValidTimeJoin(TestSchema(), r_tuples, SSchema(), s_tuples));
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
  EXPECT_TRUE(SameTupleMultiset(actual, expected));
}

TEST(PlannerTest, AlgorithmNames) {
  EXPECT_STREQ(JoinExecutorName(JoinExecutor::kNestedLoop), "nested-loop");
  EXPECT_STREQ(JoinExecutorName(JoinExecutor::kSortMerge), "sort-merge");
  EXPECT_STREQ(JoinExecutorName(JoinExecutor::kPartition), "partition");
  EXPECT_STREQ(JoinExecutorName(JoinExecutor::kInMemoryRadix),
               "in-memory-radix");
  EXPECT_STREQ(JoinExecutorName(JoinExecutor::kSweep), "sweep");
}

// The predicate-aware ranking: adjacency predicates leave the sweep as
// the only finite-cost candidate, and the auto row routes to it.
TEST(PlannerTest, AdjacencyPredicateRoutesToSweep) {
  Disk disk;
  Random rng(11);
  auto r = MakeRelation(&disk, TestSchema(), RandomTuples(rng, 400, 50, 800, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  for (const Tuple& t : RandomTuples(rng, 400, 50, 800, 0.1)) {
    s->Append(Tuple({t.value(0), t.value(1)}, t.interval())).ok();
  }
  TEMPO_ASSERT_OK(s->Flush());
  ExecOptions options;
  options.buffer_pages = 16;
  options.predicate = TemporalPredicate::Exactly(AllenRelation::kMeets);
  JoinPlan plan = PlanVtJoin(r.get(), s.get(), options);
  EXPECT_EQ(plan.algorithm, JoinExecutor::kSweep);
  ASSERT_EQ(plan.candidates.size(), 5u);
  EXPECT_TRUE(std::isfinite(plan.candidates.front().estimated_cost));
  for (size_t i = 1; i < plan.candidates.size(); ++i) {
    EXPECT_TRUE(std::isinf(plan.candidates[i].estimated_cost));
  }
}

// Before/after predicates have no plannable executor at all.
TEST(PlannerTest, DisjointPredicateIsNotPlannable) {
  Disk disk;
  Random rng(12);
  auto r = MakeRelation(&disk, TestSchema(), RandomTuples(rng, 50, 10, 200, 0.1), "r");
  auto s = MakeRelation(&disk, SSchema(), {}, "s");
  for (const Tuple& t : RandomTuples(rng, 50, 10, 200, 0.1)) {
    s->Append(Tuple({t.value(0), t.value(1)}, t.interval())).ok();
  }
  TEMPO_ASSERT_OK(s->Flush());
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  ExecOptions options;
  options.buffer_pages = 16;
  options.predicate = TemporalPredicate::Exactly(AllenRelation::kBefore);
  Status st = ExecutorRowOf(JoinExecutor::kAuto)
                  .run(r.get(), s.get(), &out, options, nullptr)
                  .status();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("before"), std::string::npos);
}

// The planner's estimates should track reality within an order of
// magnitude across regimes — they are coarse, but they must rank.
TEST(PlannerTest, EstimatesTrackMeasuredCosts) {
  Disk disk;
  Random rng(4);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 8000, 200, 4000, 0.0);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 8000, 200, 4000, 0.0)) {
    s_tuples.push_back(Tuple({t.value(0), t.value(1)}, t.interval()));
  }
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  ExecOptions options;
  options.buffer_pages = r->num_pages() / 8;

  JoinPlan plan = PlanVtJoin(r.get(), s.get(), options);
  StoredRelation out(&disk, layout.output, "out");
  TEMPO_ASSERT_OK(out.SetCharged(false));
  TEMPO_ASSERT_OK_AND_ASSIGN(
      JoinRunStats stats, ExecutorRowOf(JoinExecutor::kAuto)
                              .run(r.get(), s.get(), &out, options, nullptr));
  double measured = stats.Cost(options.cost_model);
  double estimated = plan.candidates.front().estimated_cost;
  EXPECT_GT(estimated, measured / 10.0);
  EXPECT_LT(estimated, measured * 10.0);
}

}  // namespace
}  // namespace tempo
