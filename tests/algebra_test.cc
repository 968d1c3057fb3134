#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "algebra/operators.h"
#include "algebra/temporal_joins.h"
#include "join/reference_join.h"
#include "service/join_request.h"
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
// Coalesce
// ---------------------------------------------------------------------

TEST(CoalesceTest, MergesAdjacentValueEquivalentTuples) {
  std::vector<Tuple> in{T(1, "a", 0, 4), T(1, "a", 5, 9), T(1, "a", 20, 25)};
  std::vector<Tuple> out = Coalesce(in);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].interval(), Interval(0, 9));
  EXPECT_EQ(out[1].interval(), Interval(20, 25));
}

TEST(CoalesceTest, MergesOverlapping) {
  std::vector<Tuple> in{T(1, "a", 0, 10), T(1, "a", 5, 20)};
  std::vector<Tuple> out = Coalesce(in);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].interval(), Interval(0, 20));
}

TEST(CoalesceTest, KeepsDistinctValuesApart) {
  std::vector<Tuple> in{T(1, "a", 0, 10), T(1, "b", 5, 20), T(2, "a", 0, 10)};
  std::vector<Tuple> out = Coalesce(in);
  EXPECT_EQ(out.size(), 3u);
}

TEST(CoalesceTest, Idempotent) {
  Random rng(3);
  std::vector<Tuple> in = RandomTuples(rng, 200, 5, 100, 0.4);
  std::vector<Tuple> once = Coalesce(in);
  std::vector<Tuple> twice = Coalesce(once);
  EXPECT_TRUE(SameTupleMultiset(once, twice));
}

TEST(CoalesceTest, PreservesSnapshots) {
  // Snapshot equivalence: the timeslice at every chronon is unchanged.
  Random rng(4);
  std::vector<Tuple> in = RandomTuples(rng, 100, 4, 60, 0.5);
  std::vector<Tuple> out = Coalesce(in);
  for (Chronon t = 0; t < 60; t += 7) {
    // Compare value multisets at time t (duplicates collapse under
    // coalescing, so compare *sets* of values).
    auto values_at = [t](const std::vector<Tuple>& rel) {
      std::set<std::string> vals;
      for (const Tuple& tup : Timeslice(rel, t)) {
        std::string key;
        for (const Value& v : tup.values()) key += v.ToString() + "|";
        vals.insert(key);
      }
      return vals;
    };
    EXPECT_EQ(values_at(in), values_at(out)) << "at chronon " << t;
  }
}

// ---------------------------------------------------------------------
// Timeslice / selection / projection
// ---------------------------------------------------------------------

TEST(TimesliceTest, PicksValidTuples) {
  std::vector<Tuple> in{T(1, "a", 0, 5), T(2, "b", 3, 8), T(3, "c", 6, 9)};
  std::vector<Tuple> out = Timeslice(in, 4);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].interval(), Interval::At(4));
  EXPECT_EQ(out[0].value(0).AsInt64(), 1);
  EXPECT_EQ(out[1].value(0).AsInt64(), 2);
}

TEST(SelectAllenTest, FiltersByRelation) {
  std::vector<Tuple> in{T(1, "a", 2, 4), T(2, "b", 0, 10), T(3, "c", 12, 15)};
  Interval q(0, 10);
  std::vector<Tuple> during = SelectAllen(in, AllenRelation::kDuring, q);
  ASSERT_EQ(during.size(), 1u);
  EXPECT_EQ(during[0].value(0).AsInt64(), 1);
  std::vector<Tuple> equal = SelectAllen(in, AllenRelation::kEquals, q);
  ASSERT_EQ(equal.size(), 1u);
  EXPECT_EQ(equal[0].value(0).AsInt64(), 2);
  EXPECT_EQ(SelectAllen(in, AllenRelation::kAfter, q).size(), 1u);
}

TEST(SelectTest, ArbitraryPredicate) {
  std::vector<Tuple> in{T(1, "a", 0, 1), T(5, "b", 0, 1)};
  auto out = Select(in, [](const Tuple& t) {
    return t.value(0).AsInt64() > 2;
  });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value(0).AsInt64(), 5);
}

TEST(ProjectTest, DropsAttributesAndCoalesces) {
  // Distinct names with the same key become value-equivalent after
  // projecting to {key} and must merge.
  std::vector<Tuple> in{T(1, "alice", 0, 4), T(1, "bob", 5, 9)};
  TEMPO_ASSERT_OK_AND_ASSIGN(auto result, Project(TestSchema(), in, {0}));
  EXPECT_EQ(result.first.ToString(), "(key:int64)");
  ASSERT_EQ(result.second.size(), 1u);
  EXPECT_EQ(result.second[0].interval(), Interval(0, 9));
}

TEST(ProjectTest, OutOfRangeFails) {
  EXPECT_FALSE(Project(TestSchema(), {}, {7}).ok());
}

TEST(VtUnionTest, CoalescesAcrossInputs) {
  std::vector<Tuple> r{T(1, "a", 0, 4)};
  std::vector<Tuple> s{T(1, "a", 5, 9)};
  std::vector<Tuple> out = VtUnion(r, s);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].interval(), Interval(0, 9));
}

TEST(VtDifferenceTest, SubtractsCoveredTime) {
  std::vector<Tuple> r{T(1, "a", 0, 10)};
  std::vector<Tuple> s{T(1, "a", 3, 5)};
  std::vector<Tuple> out = VtDifference(r, s);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].interval(), Interval(0, 2));
  EXPECT_EQ(out[1].interval(), Interval(6, 10));
}

TEST(VtDifferenceTest, DifferentValuesUntouched) {
  std::vector<Tuple> r{T(1, "a", 0, 10)};
  std::vector<Tuple> s{T(1, "b", 0, 10)};
  std::vector<Tuple> out = VtDifference(r, s);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].interval(), Interval(0, 10));
}

// ---------------------------------------------------------------------
// Temporal join family through the partition framework
// ---------------------------------------------------------------------

// The Section 4.1 join family, each shape with its predicate and the
// Interval method it names.
enum class JoinShape { kOverlap, kContains, kContainedIn, kEqual };

struct ShapeCase {
  const char* name;
  TemporalPredicate predicate;
  bool (*holds)(const Interval& x, const Interval& y);
};

const ShapeCase kShapes[] = {
    {"overlap", TemporalPredicate::Overlap(),
     [](const Interval& x, const Interval& y) { return x.Overlaps(y); }},
    {"contains", TemporalPredicate::ContainJoin(),
     [](const Interval& x, const Interval& y) { return x.Contains(y); }},
    {"contained_in", TemporalPredicate::ContainedJoin(),
     [](const Interval& x, const Interval& y) { return y.Contains(x); }},
    {"equal", TemporalPredicate::EqualJoin(),
     [](const Interval& x, const Interval& y) { return x == y; }},
};

class PredicateJoinTest : public ::testing::TestWithParam<JoinShape> {};

TEST_P(PredicateJoinTest, MatchesInMemoryOracle) {
  const ShapeCase& shape = kShapes[static_cast<int>(GetParam())];
  Random rng(55);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 300, 20, 400, 0.3);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 300, 20, 400, 0.3)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                         t.interval().start(), t.interval().end()));
  }

  Disk disk;
  auto r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
  auto s = MakeRelation(&disk, SSchema(), s_tuples, "s");
  TEMPO_ASSERT_OK_AND_ASSIGN(NaturalJoinLayout layout,
                             DeriveNaturalJoinLayout(TestSchema(), SSchema()));
  StoredRelation out(&disk, layout.output, "out");
  JoinRequest req;
  req.From(r.get(), s.get())
      .Using(JoinExecutor::kPartition)
      .BufferPages(12)
      .Predicate(shape.predicate);
  TEMPO_ASSERT_OK(RunJoin(req, &out).status());

  // Oracle: nested loops with the predicate.
  std::vector<Tuple> expected;
  for (const Tuple& x : r_tuples) {
    for (const Tuple& y : s_tuples) {
      if (!x.EqualOnAttrs(layout.r_join_attrs, layout.s_join_attrs, y)) {
        continue;
      }
      if (!shape.holds(x.interval(), y.interval())) continue;
      auto common = Overlap(x.interval(), y.interval());
      ASSERT_TRUE(common.has_value());
      expected.push_back(MakeJoinTuple(layout, x, y, *common));
    }
  }
  TEMPO_ASSERT_OK_AND_ASSIGN(std::vector<Tuple> actual, out.ReadAll());
  EXPECT_TRUE(SameTupleMultiset(actual, expected))
      << shape.name << ": got " << actual.size() << ", want "
      << expected.size();
}

INSTANTIATE_TEST_SUITE_P(
    Predicates, PredicateJoinTest,
    ::testing::Values(JoinShape::kOverlap, JoinShape::kContains,
                      JoinShape::kContainedIn, JoinShape::kEqual),
    [](const ::testing::TestParamInfo<JoinShape>& info) {
      return std::string(kShapes[static_cast<int>(info.param)].name);
    });

TEST(ContainSemiJoinTest, KeepsContainingTuples) {
  std::vector<Tuple> r{T(1, "a", 0, 10), T(1, "b", 2, 3), T(2, "c", 0, 10)};
  std::vector<Tuple> s{S(1, "x", 4, 6)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ContainSemiJoin(TestSchema(), r, SSchema(), s));
  // Only (1,a) contains [4,6] with a matching key; (2,c) contains it but
  // the key differs; (1,b) doesn't contain it.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value(1).AsString(), "a");
}

// ---------------------------------------------------------------------
// TE-outerjoin / event join [SG89]: the sequenced left- and full-outer
// joins of the reference oracle
// ---------------------------------------------------------------------

TEST(ReferenceLeftOuterTest, PadsUnmatchedStretchesWithNulls) {
  std::vector<Tuple> r{T(1, "a", 0, 10)};
  std::vector<Tuple> s{S(1, "x", 3, 5)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceSequencedJoin(TestSchema(), r, SSchema(), s,
                             JoinKind::kLeftOuter));
  // One match on [3,5], NULL-padded stretches [0,2] and [6,10].
  ASSERT_EQ(out.size(), 3u);
  int matches = 0, nulls = 0;
  for (const Tuple& t : out) {
    if (t.value(2).is_null()) {
      ++nulls;
      EXPECT_TRUE(t.interval() == Interval(0, 2) ||
                  t.interval() == Interval(6, 10))
          << t.ToString();
      EXPECT_EQ(t.value(0).AsInt64(), 1);
      EXPECT_EQ(t.value(1).AsString(), "a");
    } else {
      ++matches;
      EXPECT_EQ(t.interval(), Interval(3, 5));
      EXPECT_EQ(t.value(2).AsString(), "x");
    }
  }
  EXPECT_EQ(matches, 1);
  EXPECT_EQ(nulls, 2);
}

TEST(ReferenceLeftOuterTest, FullyCoveredTupleHasNoPadding) {
  std::vector<Tuple> r{T(1, "a", 3, 5)};
  std::vector<Tuple> s{S(1, "x", 0, 10)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceSequencedJoin(TestSchema(), r, SSchema(), s,
                             JoinKind::kLeftOuter));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].value(2).is_null());
}

TEST(ReferenceLeftOuterTest, NoMatchMeansFullPadding) {
  std::vector<Tuple> r{T(1, "a", 0, 10)};
  std::vector<Tuple> s{S(2, "x", 0, 10)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceSequencedJoin(TestSchema(), r, SSchema(), s,
                             JoinKind::kLeftOuter));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].value(2).is_null());
  EXPECT_EQ(out[0].interval(), Interval(0, 10));
}

TEST(ReferenceLeftOuterTest, CoverageInvariant) {
  // For every r tuple, the output intervals carrying its values exactly
  // tile its validity interval (match stretches + padding).
  Random rng(66);
  std::vector<Tuple> r_tuples = RandomTuples(rng, 60, 6, 80, 0.4);
  std::vector<Tuple> s_tuples;
  for (const Tuple& t : RandomTuples(rng, 60, 6, 80, 0.4)) {
    s_tuples.push_back(S(t.value(0).AsInt64(), t.value(1).AsString(),
                         t.interval().start(), t.interval().end()));
  }
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceSequencedJoin(TestSchema(), r_tuples, SSchema(), s_tuples,
                             JoinKind::kLeftOuter));
  // Coverage check per r tuple via chronon counting.
  for (const Tuple& x : r_tuples) {
    for (Chronon t = x.interval().start(); t <= x.interval().end(); ++t) {
      // Count output tuples with x's key+name valid at t: padding is
      // exactly where no s tuple overlaps; matches elsewhere. Either way
      // at least one output tuple must cover chronon t.
      bool covered = false;
      for (const Tuple& z : out) {
        if (z.value(0) == x.value(0) && z.value(1) == x.value(1) &&
            z.interval().Contains(t)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << x.ToString() << " at " << t;
    }
  }
}

TEST(ReferenceFullOuterTest, PadsBothSides) {
  std::vector<Tuple> r{T(1, "a", 0, 4)};
  std::vector<Tuple> s{S(1, "x", 3, 8)};
  TEMPO_ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      ReferenceSequencedJoin(TestSchema(), r, SSchema(), s,
                             JoinKind::kFullOuter));
  // Match [3,4]; r-padding [0,2]; s-padding [5,8] with NULL name.
  ASSERT_EQ(out.size(), 3u);
  int r_pads = 0, s_pads = 0, matches = 0;
  for (const Tuple& t : out) {
    if (t.value(2).is_null()) {
      ++r_pads;
      EXPECT_EQ(t.interval(), Interval(0, 2));
    } else if (t.value(1).is_null()) {
      ++s_pads;
      EXPECT_EQ(t.interval(), Interval(5, 8));
      EXPECT_EQ(t.value(2).AsString(), "x");
    } else {
      ++matches;
      EXPECT_EQ(t.interval(), Interval(3, 4));
    }
  }
  EXPECT_EQ(r_pads, 1);
  EXPECT_EQ(s_pads, 1);
  EXPECT_EQ(matches, 1);
}

TEST(NullValueTest, SerializationRoundTripWithNulls) {
  Schema schema({{"a", ValueType::kInt64},
                 {"b", ValueType::kString},
                 {"c", ValueType::kDouble}});
  Tuple t({Value(int64_t{5}), Value::Null(), Value::Null()}, Interval(0, 3));
  std::string buf;
  t.SerializeTo(schema, &buf);
  EXPECT_EQ(buf.size(), t.SerializedSize(schema));
  TEMPO_ASSERT_OK_AND_ASSIGN(Tuple back,
                             Tuple::Deserialize(schema, buf.data(), buf.size()));
  EXPECT_EQ(back, t);
  EXPECT_TRUE(back.value(1).is_null());
  EXPECT_TRUE(back.value(2).is_null());
  EXPECT_EQ(back.value(0).AsInt64(), 5);
}

TEST(NullValueTest, NullEqualityAndPrinting) {
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value(int64_t{0}));
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_FALSE(Value(int64_t{0}).is_null());
}

}  // namespace
}  // namespace tempo
