#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "temporal/allen.h"
#include "temporal/interval.h"
#include "temporal/interval_set.h"
#include "temporal/temporal_predicate.h"
#include "test_util.h"

namespace tempo {
namespace {

// ---------------------------------------------------------------------
// Interval basics
// ---------------------------------------------------------------------

TEST(IntervalTest, Accessors) {
  Interval iv(3, 7);
  EXPECT_EQ(iv.start(), 3);
  EXPECT_EQ(iv.end(), 7);
  EXPECT_EQ(iv.duration(), 5);
}

TEST(IntervalTest, SingleChronon) {
  Interval iv = Interval::At(42);
  EXPECT_EQ(iv.start(), 42);
  EXPECT_EQ(iv.end(), 42);
  EXPECT_EQ(iv.duration(), 1);
}

TEST(IntervalTest, MakeRejectsInverted) {
  EXPECT_FALSE(Interval::Make(5, 4).has_value());
  EXPECT_TRUE(Interval::Make(5, 5).has_value());
  EXPECT_TRUE(Interval::Make(5, 6).has_value());
}

TEST(IntervalTest, AllCoversEverything) {
  Interval all = Interval::All();
  EXPECT_TRUE(all.Contains(0));
  EXPECT_TRUE(all.Contains(kChrononMin));
  EXPECT_TRUE(all.Contains(kChrononMax));
}

TEST(IntervalTest, DurationSaturates) {
  EXPECT_EQ(Interval::All().duration(), kChrononMax);
}

TEST(IntervalTest, ContainsChronon) {
  Interval iv(10, 20);
  EXPECT_FALSE(iv.Contains(9));
  EXPECT_TRUE(iv.Contains(10));
  EXPECT_TRUE(iv.Contains(15));
  EXPECT_TRUE(iv.Contains(20));
  EXPECT_FALSE(iv.Contains(21));
}

TEST(IntervalTest, ContainsInterval) {
  Interval iv(10, 20);
  EXPECT_TRUE(iv.Contains(Interval(10, 20)));
  EXPECT_TRUE(iv.Contains(Interval(12, 18)));
  EXPECT_FALSE(iv.Contains(Interval(9, 20)));
  EXPECT_FALSE(iv.Contains(Interval(10, 21)));
}

TEST(IntervalTest, OverlapsSharedChronon) {
  // Closed intervals: touching endpoints DO overlap.
  EXPECT_TRUE(Interval(1, 5).Overlaps(Interval(5, 9)));
  EXPECT_FALSE(Interval(1, 5).Overlaps(Interval(6, 9)));
  EXPECT_TRUE(Interval(1, 9).Overlaps(Interval(4, 5)));
}

TEST(IntervalTest, IntersectMatchesPaperOverlapDefinition) {
  // The paper defines overlap(U, V) procedurally as the chronons common to
  // both. Verify the closed form against that definition over a small
  // universe.
  constexpr Chronon kLo = 0, kHi = 8;
  for (Chronon us = kLo; us <= kHi; ++us) {
    for (Chronon ue = us; ue <= kHi; ++ue) {
      for (Chronon vs = kLo; vs <= kHi; ++vs) {
        for (Chronon ve = vs; ve <= kHi; ++ve) {
          Interval u(us, ue), v(vs, ve);
          std::set<Chronon> common;
          for (Chronon t = us; t <= ue; ++t) {
            if (vs <= t && t <= ve) common.insert(t);
          }
          auto result = Overlap(u, v);
          if (common.empty()) {
            EXPECT_FALSE(result.has_value());
          } else {
            ASSERT_TRUE(result.has_value());
            EXPECT_EQ(result->start(), *common.begin());
            EXPECT_EQ(result->end(), *common.rbegin());
          }
        }
      }
    }
  }
}

TEST(IntervalTest, IntersectCommutes) {
  Interval a(0, 10), b(5, 20);
  EXPECT_EQ(a.Intersect(b), b.Intersect(a));
}

TEST(IntervalTest, SpanCoversBoth) {
  Interval a(0, 3), b(10, 12);
  Interval s = a.Span(b);
  EXPECT_EQ(s, Interval(0, 12));
  EXPECT_TRUE(s.Contains(a));
  EXPECT_TRUE(s.Contains(b));
}

TEST(IntervalTest, MeetsIsAdjacency) {
  EXPECT_TRUE(Interval(1, 4).Meets(Interval(5, 9)));
  EXPECT_FALSE(Interval(1, 4).Meets(Interval(6, 9)));
  EXPECT_FALSE(Interval(1, 4).Meets(Interval(4, 9)));
  // No wraparound at the top of the line.
  EXPECT_FALSE(Interval(0, kChrononMax).Meets(Interval(0, 1)));
}

TEST(IntervalTest, ToStringFormatsInfinities) {
  EXPECT_EQ(Interval(1, 2).ToString(), "[1, 2]");
  EXPECT_EQ(Interval::All().ToString(), "[-inf, +inf]");
}

TEST(IntervalTest, StartLessOrdering) {
  IntervalStartLess less;
  EXPECT_TRUE(less(Interval(1, 5), Interval(2, 3)));
  EXPECT_TRUE(less(Interval(1, 3), Interval(1, 5)));
  EXPECT_FALSE(less(Interval(1, 5), Interval(1, 5)));
}

// ---------------------------------------------------------------------
// Allen relations
// ---------------------------------------------------------------------

TEST(AllenTest, HandPickedCases) {
  EXPECT_EQ(ClassifyAllen(Interval(0, 1), Interval(3, 4)),
            AllenRelation::kBefore);
  EXPECT_EQ(ClassifyAllen(Interval(0, 2), Interval(3, 4)),
            AllenRelation::kMeets);
  EXPECT_EQ(ClassifyAllen(Interval(0, 3), Interval(2, 5)),
            AllenRelation::kOverlaps);
  EXPECT_EQ(ClassifyAllen(Interval(0, 5), Interval(2, 5)),
            AllenRelation::kFinishedBy);
  EXPECT_EQ(ClassifyAllen(Interval(0, 5), Interval(2, 4)),
            AllenRelation::kContains);
  EXPECT_EQ(ClassifyAllen(Interval(0, 2), Interval(0, 5)),
            AllenRelation::kStarts);
  EXPECT_EQ(ClassifyAllen(Interval(0, 5), Interval(0, 5)),
            AllenRelation::kEquals);
  EXPECT_EQ(ClassifyAllen(Interval(0, 5), Interval(0, 2)),
            AllenRelation::kStartedBy);
  EXPECT_EQ(ClassifyAllen(Interval(2, 4), Interval(0, 5)),
            AllenRelation::kDuring);
  EXPECT_EQ(ClassifyAllen(Interval(2, 5), Interval(0, 5)),
            AllenRelation::kFinishes);
  EXPECT_EQ(ClassifyAllen(Interval(2, 5), Interval(0, 3)),
            AllenRelation::kOverlappedBy);
  EXPECT_EQ(ClassifyAllen(Interval(3, 4), Interval(0, 2)),
            AllenRelation::kMetBy);
  EXPECT_EQ(ClassifyAllen(Interval(3, 4), Interval(0, 1)),
            AllenRelation::kAfter);
}

TEST(AllenTest, InversionIsConsistentExhaustively) {
  constexpr Chronon kHi = 6;
  for (Chronon as = 0; as <= kHi; ++as) {
    for (Chronon ae = as; ae <= kHi; ++ae) {
      for (Chronon bs = 0; bs <= kHi; ++bs) {
        for (Chronon be = bs; be <= kHi; ++be) {
          Interval a(as, ae), b(bs, be);
          AllenRelation fwd = ClassifyAllen(a, b);
          AllenRelation rev = ClassifyAllen(b, a);
          EXPECT_EQ(InvertAllen(fwd), rev)
              << a.ToString() << " vs " << b.ToString();
          EXPECT_EQ(InvertAllen(InvertAllen(fwd)), fwd);
        }
      }
    }
  }
}

TEST(AllenTest, ImpliesOverlapAgreesWithOverlapsExhaustively) {
  constexpr Chronon kHi = 6;
  for (Chronon as = 0; as <= kHi; ++as) {
    for (Chronon ae = as; ae <= kHi; ++ae) {
      for (Chronon bs = 0; bs <= kHi; ++bs) {
        for (Chronon be = bs; be <= kHi; ++be) {
          Interval a(as, ae), b(bs, be);
          EXPECT_EQ(ImpliesOverlap(ClassifyAllen(a, b)), a.Overlaps(b))
              << a.ToString() << " vs " << b.ToString();
        }
      }
    }
  }
}

// Exactly one of the 13 relations holds for any pair. Each relation's
// definitional condition is coded independently of ClassifyAllen's
// decision tree, and exactly one condition may fire.
TEST(AllenTest, ExactlyOneRelationHoldsExhaustively) {
  constexpr Chronon kHi = 6;
  for (Chronon as = 0; as <= kHi; ++as) {
    for (Chronon ae = as; ae <= kHi; ++ae) {
      for (Chronon bs = 0; bs <= kHi; ++bs) {
        for (Chronon be = bs; be <= kHi; ++be) {
          const Interval a(as, ae), b(bs, be);
          const std::vector<std::pair<AllenRelation, bool>> defs = {
              {AllenRelation::kBefore, ae + 1 < bs},
              {AllenRelation::kMeets, ae + 1 == bs},
              {AllenRelation::kOverlaps, as < bs && bs <= ae && ae < be},
              {AllenRelation::kFinishedBy, as < bs && ae == be},
              {AllenRelation::kContains, as < bs && be < ae},
              {AllenRelation::kStarts, as == bs && ae < be},
              {AllenRelation::kEquals, as == bs && ae == be},
              {AllenRelation::kStartedBy, as == bs && be < ae},
              {AllenRelation::kDuring, bs < as && ae < be},
              {AllenRelation::kFinishes, bs < as && ae == be},
              {AllenRelation::kOverlappedBy,
               bs < as && as <= be && be < ae},
              {AllenRelation::kMetBy, be + 1 == as},
              {AllenRelation::kAfter, be + 1 < as},
          };
          int fired = 0;
          AllenRelation expected = AllenRelation::kEquals;
          for (const auto& [rel, holds] : defs) {
            if (holds) {
              ++fired;
              expected = rel;
            }
          }
          ASSERT_EQ(fired, 1)
              << a.ToString() << " vs " << b.ToString();
          EXPECT_EQ(ClassifyAllen(a, b), expected)
              << a.ToString() << " vs " << b.ToString();
        }
      }
    }
  }
}

TEST(AllenTest, NamesAreUniqueAndNonNull) {
  std::set<std::string> names;
  for (int i = 0; i <= static_cast<int>(AllenRelation::kAfter); ++i) {
    const char* name = AllenRelationName(static_cast<AllenRelation>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(names.size(), 13u);
}

// ---------------------------------------------------------------------
// TemporalPredicate
// ---------------------------------------------------------------------

TEST(TemporalPredicateTest, DefaultIsTheNineRelationOverlapDisjunction) {
  const TemporalPredicate pred;
  EXPECT_TRUE(pred.IsOverlapDefault());
  EXPECT_EQ(pred, TemporalPredicate::Overlap());
  int members = 0;
  for (int i = 0; i <= static_cast<int>(AllenRelation::kAfter); ++i) {
    const auto r = static_cast<AllenRelation>(i);
    if (pred.Test(r)) ++members;
    EXPECT_EQ(pred.Test(r), ImpliesOverlap(r)) << AllenRelationName(r);
  }
  EXPECT_EQ(members, 9);
}

TEST(TemporalPredicateTest, MatchesAgreesWithClassifyExhaustively) {
  constexpr Chronon kHi = 5;
  const std::vector<TemporalPredicate> preds = {
      TemporalPredicate::Overlap(),
      TemporalPredicate::ContainJoin(),
      TemporalPredicate::ContainedJoin(),
      TemporalPredicate::EqualJoin(),
      TemporalPredicate::Exactly(AllenRelation::kMeets),
      TemporalPredicate::AnyOf(
          {AllenRelation::kBefore, AllenRelation::kAfter}),
  };
  for (Chronon as = 0; as <= kHi; ++as) {
    for (Chronon ae = as; ae <= kHi; ++ae) {
      for (Chronon bs = 0; bs <= kHi; ++bs) {
        for (Chronon be = bs; be <= kHi; ++be) {
          const Interval a(as, ae), b(bs, be);
          for (const TemporalPredicate& p : preds) {
            EXPECT_EQ(p.Matches(a, b), p.Test(ClassifyAllen(a, b)))
                << p.Name() << " on " << a.ToString() << " vs "
                << b.ToString();
          }
        }
      }
    }
  }
}

// The join-family constructors of Section 4.1 agree with the Interval
// methods they name on every pair of a small exhaustive grid.
TEST(TemporalPredicateTest, JoinFamilyConstructorsMatchIntervalMethods) {
  constexpr Chronon kHi = 5;
  for (Chronon as = 0; as <= kHi; ++as) {
    for (Chronon ae = as; ae <= kHi; ++ae) {
      for (Chronon bs = 0; bs <= kHi; ++bs) {
        for (Chronon be = bs; be <= kHi; ++be) {
          const Interval a(as, ae), b(bs, be);
          const std::string pair = a.ToString() + " vs " + b.ToString();
          EXPECT_EQ(TemporalPredicate::Overlap().Matches(a, b), a.Overlaps(b))
              << pair;
          EXPECT_EQ(TemporalPredicate::ContainJoin().Matches(a, b),
                    a.Contains(b))
              << pair;
          EXPECT_EQ(TemporalPredicate::ContainedJoin().Matches(a, b),
                    b.Contains(a))
              << pair;
          EXPECT_EQ(TemporalPredicate::EqualJoin().Matches(a, b), a == b)
              << pair;
        }
      }
    }
  }
}

TEST(TemporalPredicateTest, TaxonomyClassification) {
  EXPECT_TRUE(TemporalPredicate::Overlap().ImpliesSharedChronon());
  EXPECT_TRUE(TemporalPredicate::ContainJoin().ImpliesSharedChronon());
  EXPECT_TRUE(TemporalPredicate::EqualJoin().ImpliesSharedChronon());
  EXPECT_FALSE(TemporalPredicate::Overlap().NeedsAdjacency());
  EXPECT_FALSE(TemporalPredicate::Overlap().HasDisjointNonAdjacent());

  const auto meets = TemporalPredicate::Exactly(AllenRelation::kMeets);
  EXPECT_FALSE(meets.ImpliesSharedChronon());
  EXPECT_TRUE(meets.NeedsAdjacency());
  EXPECT_FALSE(meets.HasDisjointNonAdjacent());

  const auto before = TemporalPredicate::Exactly(AllenRelation::kBefore);
  EXPECT_FALSE(before.ImpliesSharedChronon());
  EXPECT_FALSE(before.NeedsAdjacency());
  EXPECT_TRUE(before.HasDisjointNonAdjacent());

  const auto mixed = TemporalPredicate::AnyOf(
      {AllenRelation::kMeets, AllenRelation::kDuring});
  EXPECT_FALSE(mixed.ImpliesSharedChronon());
  EXPECT_TRUE(mixed.NeedsAdjacency());
  EXPECT_FALSE(mixed.HasDisjointNonAdjacent());
}

TEST(TemporalPredicateTest, NameParseRoundTrips) {
  const std::vector<TemporalPredicate> preds = {
      TemporalPredicate::Overlap(),
      TemporalPredicate::ContainJoin(),
      TemporalPredicate::ContainedJoin(),
      TemporalPredicate::EqualJoin(),
      TemporalPredicate::Exactly(AllenRelation::kMeets),
      TemporalPredicate::Exactly(AllenRelation::kBefore),
      TemporalPredicate::AnyOf(
          {AllenRelation::kMeets, AllenRelation::kMetBy}),
      TemporalPredicate::AnyOf({AllenRelation::kStarts,
                                AllenRelation::kEquals,
                                AllenRelation::kFinishes}),
  };
  for (const TemporalPredicate& p : preds) {
    auto parsed = TemporalPredicate::Parse(p.Name());
    ASSERT_TRUE(parsed.has_value()) << p.Name();
    EXPECT_EQ(*parsed, p) << p.Name();
  }
  // Bare Allen relation names parse to their singleton predicates.
  for (int i = 0; i <= static_cast<int>(AllenRelation::kAfter); ++i) {
    const auto r = static_cast<AllenRelation>(i);
    auto parsed = TemporalPredicate::Parse(AllenRelationName(r));
    ASSERT_TRUE(parsed.has_value()) << AllenRelationName(r);
    EXPECT_EQ(*parsed, TemporalPredicate::Exactly(r));
  }
  EXPECT_FALSE(TemporalPredicate::Parse("").has_value());
  EXPECT_FALSE(TemporalPredicate::Parse("sideways").has_value());
  EXPECT_FALSE(TemporalPredicate::Parse("meets|sideways").has_value());
}

TEST(TemporalPredicateTest, FromMaskValidates) {
  EXPECT_FALSE(TemporalPredicate::FromMask(0).has_value());
  EXPECT_FALSE(TemporalPredicate::FromMask(0x2000).has_value());
  auto overlap =
      TemporalPredicate::FromMask(TemporalPredicate::Overlap().mask());
  ASSERT_TRUE(overlap.has_value());
  EXPECT_TRUE(overlap->IsOverlapDefault());
}

TEST(TemporalPredicateTest, ResultIntervalIsIntersectionElseSpan) {
  // Shared chronons: the paper's overlap stamp.
  EXPECT_EQ(PredicateResultInterval(Interval(0, 10), Interval(5, 20)),
            Interval(5, 10));
  // Adjacent or disjoint: the covering span.
  EXPECT_EQ(PredicateResultInterval(Interval(0, 4), Interval(5, 9)),
            Interval(0, 9));
  EXPECT_EQ(PredicateResultInterval(Interval(20, 30), Interval(0, 1)),
            Interval(0, 30));
}

// ---------------------------------------------------------------------
// IntervalSet
// ---------------------------------------------------------------------

TEST(IntervalSetTest, NormalizesOverlappingAndAdjacent) {
  IntervalSet set({Interval(5, 8), Interval(0, 3), Interval(4, 4),
                   Interval(20, 25)});
  // [0,3] + [4,4] + [5,8] merge into [0,8].
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.intervals()[0], Interval(0, 8));
  EXPECT_EQ(set.intervals()[1], Interval(20, 25));
}

TEST(IntervalSetTest, ContainsChronon) {
  IntervalSet set({Interval(0, 3), Interval(10, 12)});
  EXPECT_TRUE(set.Contains(0));
  EXPECT_TRUE(set.Contains(3));
  EXPECT_FALSE(set.Contains(4));
  EXPECT_TRUE(set.Contains(11));
  EXPECT_FALSE(set.Contains(13));
  EXPECT_FALSE(set.Contains(-1));
}

TEST(IntervalSetTest, TotalDuration) {
  IntervalSet set({Interval(0, 3), Interval(10, 12)});
  EXPECT_EQ(set.TotalDuration(), 4 + 3);
}

TEST(IntervalSetTest, SubtractAllBasic) {
  IntervalSet holes =
      SubtractAll(Interval(0, 10), {Interval(2, 3), Interval(7, 8)});
  ASSERT_EQ(holes.size(), 3u);
  EXPECT_EQ(holes.intervals()[0], Interval(0, 1));
  EXPECT_EQ(holes.intervals()[1], Interval(4, 6));
  EXPECT_EQ(holes.intervals()[2], Interval(9, 10));
}

TEST(IntervalSetTest, SubtractAllFullyCovered) {
  IntervalSet holes = SubtractAll(Interval(2, 5), {Interval(0, 10)});
  EXPECT_TRUE(holes.empty());
}

TEST(IntervalSetTest, SubtractAllNothingCovered) {
  IntervalSet holes = SubtractAll(Interval(2, 5), {Interval(8, 10)});
  ASSERT_EQ(holes.size(), 1u);
  EXPECT_EQ(holes.intervals()[0], Interval(2, 5));
}

// Property test: set algebra agrees with a brute-force chronon bitset over
// a small universe, across many random inputs.
class IntervalSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalSetPropertyTest, AlgebraMatchesBitsetOracle) {
  constexpr Chronon kUniverse = 40;
  Random rng(GetParam());
  auto random_intervals = [&](size_t count) {
    std::vector<Interval> ivs;
    for (size_t i = 0; i < count; ++i) {
      Chronon s = rng.UniformRange(0, kUniverse - 1);
      Chronon e = std::min<Chronon>(kUniverse - 1,
                                    s + rng.UniformRange(0, 10));
      ivs.push_back(Interval(s, e));
    }
    return ivs;
  };
  auto to_bits = [&](const IntervalSet& set) {
    std::vector<bool> bits(kUniverse, false);
    for (Chronon t = 0; t < kUniverse; ++t) bits[t] = set.Contains(t);
    return bits;
  };

  std::vector<Interval> xs = random_intervals(6);
  std::vector<Interval> ys = random_intervals(6);
  IntervalSet a(xs), b(ys);

  std::vector<bool> ba = to_bits(a), bb = to_bits(b);
  std::vector<bool> expect_union(kUniverse), expect_inter(kUniverse),
      expect_diff(kUniverse);
  for (Chronon t = 0; t < kUniverse; ++t) {
    expect_union[t] = ba[t] || bb[t];
    expect_inter[t] = ba[t] && bb[t];
    expect_diff[t] = ba[t] && !bb[t];
  }
  EXPECT_EQ(to_bits(a.Union(b)), expect_union);
  EXPECT_EQ(to_bits(a.Intersection(b)), expect_inter);
  EXPECT_EQ(to_bits(a.Difference(b)), expect_diff);

  // Normalization invariant: intervals sorted, disjoint, non-adjacent.
  for (const IntervalSet& s : {a, b, a.Union(b), a.Difference(b)}) {
    for (size_t i = 1; i < s.intervals().size(); ++i) {
      EXPECT_GT(s.intervals()[i].start(), s.intervals()[i - 1].end() + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetPropertyTest,
                         ::testing::Range<uint64_t>(0, 25));

// SubtractAll is the primitive behind the sequenced outer/anti joins'
// uncovered-subinterval emission: random universes against random covered
// batches, checked chronon-by-chronon against a bitmap oracle, plus the
// complement invariants (uncovered ∪ covered ⊇ universe, uncovered ∩
// covered = ∅, uncovered ⊆ universe) and batch-order independence.
class SubtractAllPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SubtractAllPropertyTest, MatchesBitmapOracleAndComplementLaws) {
  constexpr Chronon kLifespan = 60;
  Random rng(GetParam() * 7919 + 3);
  for (int round = 0; round < 20; ++round) {
    const Chronon us = rng.UniformRange(0, kLifespan - 1);
    const Interval universe(
        us, std::min<Chronon>(kLifespan - 1, us + rng.UniformRange(0, 25)));
    std::vector<Interval> covered;
    const size_t batch = rng.UniformRange(0, 8);
    for (size_t i = 0; i < batch; ++i) {
      Chronon s = rng.UniformRange(0, kLifespan - 1);
      covered.push_back(Interval(
          s, std::min<Chronon>(kLifespan - 1, s + rng.UniformRange(0, 12))));
    }

    const IntervalSet uncovered = SubtractAll(universe, covered);
    auto in_covered = [&](Chronon t) {
      for (const Interval& iv : covered) {
        if (iv.Contains(t)) return true;
      }
      return false;
    };
    for (Chronon t = 0; t < kLifespan; ++t) {
      const bool expect = universe.Contains(t) && !in_covered(t);
      EXPECT_EQ(uncovered.Contains(t), expect)
          << "seed=" << GetParam() << " round=" << round << " t=" << t;
    }

    // Complement law as set algebra: uncovered == {universe} \ covered.
    IntervalSet u;
    u.Add(universe);
    EXPECT_EQ(uncovered, u.Difference(IntervalSet(covered)));

    // Batch order must not matter (the parallel join folds coverage in
    // nondeterministic wave order).
    std::vector<Interval> reversed(covered.rbegin(), covered.rend());
    EXPECT_EQ(SubtractAll(universe, reversed), uncovered);

    // Normalization: sorted, disjoint, non-adjacent, inside the universe.
    for (size_t i = 0; i < uncovered.intervals().size(); ++i) {
      const Interval& iv = uncovered.intervals()[i];
      EXPECT_GE(iv.start(), universe.start());
      EXPECT_LE(iv.end(), universe.end());
      if (i > 0) {
        EXPECT_GT(iv.start(), uncovered.intervals()[i - 1].end() + 1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubtractAllPropertyTest,
                         ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace tempo
