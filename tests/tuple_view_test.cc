// Zero-copy TupleView: validation parity with Tuple::Deserialize,
// value/hash/equality parity with owning tuples, and arena stability.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "relation/tuple_view.h"
#include "storage/page_arena.h"
#include "storage/stored_relation.h"
#include "test_util.h"

namespace tempo {
namespace {

using ::tempo::testing::T;
using ::tempo::testing::TestSchema;

Schema MixedSchema() {
  return Schema({{"k", ValueType::kInt64},
                 {"s", ValueType::kString},
                 {"d", ValueType::kDouble}});
}

std::vector<Tuple> MixedTuples() {
  return {
      Tuple({Value(int64_t{7}), Value("alpha"), Value(1.5)}, Interval(0, 10)),
      Tuple({Value(int64_t{-3}), Value(""), Value(-0.0)}, Interval(5, 5)),
      Tuple({Value::Null(), Value("beta"), Value::Null()}, Interval(1, 2)),
      Tuple({Value(int64_t{0}), Value::Null(), Value(2.25)}, Interval(3, 9)),
      Tuple({Value::Null(), Value::Null(), Value::Null()}, Interval(0, 0)),
  };
}

std::string SerializeOne(const Schema& schema, const Tuple& t) {
  std::string rec;
  t.SerializeTo(schema, &rec);
  return rec;
}

TEST(TupleViewTest, MaterializeRoundTrips) {
  Schema schema = MixedSchema();
  for (const Tuple& t : MixedTuples()) {
    std::string rec = SerializeOne(schema, t);
    TEMPO_ASSERT_OK_AND_ASSIGN(
        TupleView v, TupleView::Make(schema.layout(), rec.data(), rec.size()));
    EXPECT_EQ(v.record(), rec);
    EXPECT_EQ(v.interval(), t.interval());
    EXPECT_EQ(v.Materialize(), t);
  }
}

TEST(TupleViewTest, AccessorsMatchOwningValues) {
  Schema schema = MixedSchema();
  Tuple t({Value(int64_t{42}), Value("hello world"), Value(-2.5)},
          Interval(100, 200));
  std::string rec = SerializeOne(schema, t);
  TEMPO_ASSERT_OK_AND_ASSIGN(
      TupleView v, TupleView::Make(schema.layout(), rec.data(), rec.size()));
  EXPECT_FALSE(v.is_null(0));
  EXPECT_FALSE(v.is_null(1));
  EXPECT_FALSE(v.is_null(2));
  EXPECT_EQ(v.Int64At(0), 42);
  EXPECT_EQ(v.StringAt(1), "hello world");
  EXPECT_EQ(v.DoubleAt(2), -2.5);
  EXPECT_EQ(v.ValueAt(0), t.value(0));
  EXPECT_EQ(v.ValueAt(1), t.value(1));
  EXPECT_EQ(v.ValueAt(2), t.value(2));

  Tuple with_nulls({Value::Null(), Value("x"), Value::Null()}, Interval(0, 1));
  std::string rec2 = SerializeOne(schema, with_nulls);
  TEMPO_ASSERT_OK_AND_ASSIGN(
      TupleView v2,
      TupleView::Make(schema.layout(), rec2.data(), rec2.size()));
  EXPECT_TRUE(v2.is_null(0));
  EXPECT_FALSE(v2.is_null(1));
  EXPECT_TRUE(v2.is_null(2));
  EXPECT_EQ(v2.StringAt(1), "x");
  EXPECT_TRUE(v2.ValueAt(0).is_null());
}

TEST(TupleViewTest, ValidationParityWithDeserialize) {
  Schema schema = MixedSchema();
  const RecordLayout& layout = schema.layout();
  for (const Tuple& t : MixedTuples()) {
    std::string rec = SerializeOne(schema, t);

    // Every strict prefix must be rejected by both decoders.
    for (size_t cut = 0; cut < rec.size(); ++cut) {
      bool view_ok = TupleView::Make(layout, rec.data(), cut).ok();
      bool tuple_ok = Tuple::Deserialize(schema, rec.data(), cut).ok();
      EXPECT_EQ(view_ok, tuple_ok) << "prefix length " << cut;
      EXPECT_FALSE(view_ok) << "prefix length " << cut;
    }

    // Trailing garbage.
    std::string longer = rec + 'x';
    EXPECT_FALSE(TupleView::Make(layout, longer.data(), longer.size()).ok());
    EXPECT_FALSE(Tuple::Deserialize(schema, longer.data(), longer.size()).ok());

    // Inverted interval: Vs > Ve.
    std::string inverted = rec;
    int64_t vs = 99, ve = 1;
    std::memcpy(&inverted[0], &vs, 8);
    std::memcpy(&inverted[8], &ve, 8);
    EXPECT_FALSE(
        TupleView::Make(layout, inverted.data(), inverted.size()).ok());
    EXPECT_FALSE(
        Tuple::Deserialize(schema, inverted.data(), inverted.size()).ok());

    // Nonzero padding bit in the null bitmap (3 attrs -> bits 3..7 pad).
    std::string bad_pad = rec;
    bad_pad[RecordLayout::kBitmapOffset] |= char(0x80);
    EXPECT_FALSE(TupleView::Make(layout, bad_pad.data(), bad_pad.size()).ok());
    EXPECT_FALSE(
        Tuple::Deserialize(schema, bad_pad.data(), bad_pad.size()).ok());
  }
}

TEST(TupleViewTest, HashParityWithTuple) {
  Schema schema = MixedSchema();
  const std::vector<std::vector<size_t>> position_sets = {
      {0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}, {2, 0}};
  for (const Tuple& t : MixedTuples()) {
    std::string rec = SerializeOne(schema, t);
    TEMPO_ASSERT_OK_AND_ASSIGN(
        TupleView v, TupleView::Make(schema.layout(), rec.data(), rec.size()));
    for (const auto& positions : position_sets) {
      EXPECT_EQ(v.HashAttrs(positions), t.HashAttrs(positions))
          << t.ToString();
    }
  }
}

TEST(TupleViewTest, EqualOnAttrsValueSemantics) {
  Schema schema = MixedSchema();
  Tuple a({Value(int64_t{1}), Value::Null(), Value(0.0)}, Interval(0, 1));
  Tuple b({Value(int64_t{1}), Value::Null(), Value(-0.0)}, Interval(5, 8));
  Tuple c({Value(int64_t{2}), Value::Null(), Value(0.0)}, Interval(0, 1));
  std::string ra = SerializeOne(schema, a);
  std::string rb = SerializeOne(schema, b);
  std::string rc = SerializeOne(schema, c);
  TEMPO_ASSERT_OK_AND_ASSIGN(
      TupleView va, TupleView::Make(schema.layout(), ra.data(), ra.size()));
  TEMPO_ASSERT_OK_AND_ASSIGN(
      TupleView vb, TupleView::Make(schema.layout(), rb.data(), rb.size()));
  TEMPO_ASSERT_OK_AND_ASSIGN(
      TupleView vc, TupleView::Make(schema.layout(), rc.data(), rc.size()));
  const std::vector<size_t> all = {0, 1, 2};
  // NULL == NULL and -0.0 == 0.0, matching Value::operator==.
  EXPECT_TRUE(va.EqualOnAttrs(all, all, vb));
  EXPECT_TRUE(va.EqualOnAttrs(all, all, b));
  EXPECT_FALSE(va.EqualOnAttrs(all, all, vc));
  EXPECT_FALSE(va.EqualOnAttrs(all, all, c));
  // Aligned-position remapping: compare our attr 0 with their attr 0 only.
  EXPECT_TRUE(va.EqualOnAttrs({0}, {0}, vc) == false);
  EXPECT_TRUE(va.EqualOnAttrs({2}, {2}, vc));
}

TEST(TupleViewTest, TrustedMatchesMake) {
  Schema schema = MixedSchema();
  for (const Tuple& t : MixedTuples()) {
    std::string rec = SerializeOne(schema, t);
    TupleView v = TupleView::Trusted(schema.layout(), rec.data(), rec.size());
    EXPECT_EQ(v.Materialize(), t);
  }
}

TEST(PageTupleArenaTest, ViewsStableAcrossGrowth) {
  Schema schema = MixedSchema();
  Disk disk;
  StoredRelation rel(&disk, schema, "arena");
  std::vector<Tuple> written;
  for (int i = 0; i < 2000; ++i) {
    std::vector<Value> vals;
    vals.emplace_back(static_cast<int64_t>(i));
    if (i % 4 == 0) {
      vals.push_back(Value::Null());
    } else {
      vals.emplace_back("s" + std::to_string(i));
    }
    vals.emplace_back(i * 0.5);
    written.push_back(Tuple(std::move(vals), Interval(i, i + 1)));
    TEMPO_ASSERT_OK(rel.Append(written.back()));
  }
  TEMPO_ASSERT_OK(rel.Flush());
  ASSERT_GT(rel.num_pages(), 4u);

  PageTupleArena arena;
  const char* first_record_data = nullptr;
  for (uint32_t p = 0; p < rel.num_pages(); ++p) {
    Page page;
    TEMPO_ASSERT_OK(rel.ReadPage(p, &page));
    TEMPO_ASSERT_OK_AND_ASSIGN(
        size_t n, StoredRelation::DecodePageViews(schema, page, &arena));
    EXPECT_EQ(n, page.num_records());
    if (p == 0) first_record_data = arena.views()[0].record().data();
  }
  // Growth must not move earlier pages: the first view still points at the
  // same bytes and still materializes correctly.
  EXPECT_EQ(arena.views()[0].record().data(), first_record_data);
  ASSERT_EQ(arena.views().size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    ASSERT_EQ(arena.views()[i].Materialize(), written[i]) << "view " << i;
  }
  arena.Clear();
  EXPECT_TRUE(arena.views().empty());
  EXPECT_EQ(arena.num_pages(), 0u);
}

// Arenas that pin many pages (external-sort chunks, probe batches) must
// grow views() geometrically: one reallocation per page would copy every
// earlier view on every page.
TEST(PageTupleArenaTest, ManyPagesReallocateLogarithmically) {
  Schema schema = TestSchema();
  Page page;
  for (int64_t i = 0; i < 8; ++i) {
    std::string rec = SerializeOne(schema, T(i, "x", i, i + 1));
    ASSERT_TRUE(page.AddRecord(rec).has_value());
  }
  constexpr int kPages = 2048;
  PageTupleArena arena;
  std::vector<Tuple> owning;
  int arena_moves = 0;
  int owning_moves = 0;
  const TupleView* arena_data = nullptr;
  const Tuple* owning_data = nullptr;
  for (int p = 0; p < kPages; ++p) {
    TEMPO_ASSERT_OK(arena.AddPage(schema, page).status());
    TEMPO_ASSERT_OK(
        StoredRelation::DecodePageAppend(schema, page, &owning).status());
    if (arena.views().data() != arena_data) ++arena_moves;
    if (owning.data() != owning_data) ++owning_moves;
    arena_data = arena.views().data();
    owning_data = owning.data();
  }
  ASSERT_EQ(arena.views().size(), static_cast<size_t>(8 * kPages));
  ASSERT_EQ(owning.size(), static_cast<size_t>(8 * kPages));
  // Doubling from one page's worth: log2(2048) + 1 = 12 allocations.
  EXPECT_LE(arena_moves, 12);
  EXPECT_LE(owning_moves, 12);
}

TEST(PageTupleArenaTest, DecodePageViewsMatchesDecodePage) {
  Schema schema = TestSchema();
  Disk disk;
  Random rng(7);
  auto tuples = ::tempo::testing::RandomTuples(rng, 300, 50, 500, 0.2);
  auto rel = ::tempo::testing::MakeRelation(&disk, schema, tuples, "r");
  PageTupleArena arena;
  std::vector<Tuple> decoded;
  for (uint32_t p = 0; p < rel->num_pages(); ++p) {
    Page page;
    TEMPO_ASSERT_OK(rel->ReadPage(p, &page));
    TEMPO_ASSERT_OK(StoredRelation::DecodePage(schema, page, &decoded));
    TEMPO_ASSERT_OK_AND_ASSIGN(
        size_t n, StoredRelation::DecodePageViews(schema, page, &arena));
    (void)n;
  }
  ASSERT_EQ(arena.views().size(), decoded.size());
  for (size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(arena.views()[i].Materialize(), decoded[i]);
  }
}

}  // namespace
}  // namespace tempo
