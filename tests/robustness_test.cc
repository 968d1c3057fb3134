// Robustness: storage faults injected mid-operation must surface as
// Status errors from every executor — no crashes, no CHECK failures, no
// silent partial results mistaken for success — and corrupted records
// must never be trusted.

#include <gtest/gtest.h>

#include "core/partition_join.h"
#include "core/planner.h"
#include "incremental/materialized_view.h"
#include "join/external_sort.h"
#include "join/nested_loop_join.h"
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

struct FaultFixture {
  FaultFixture() {
    Random rng(13);
    r_tuples = RandomTuples(rng, 1500, 30, 800, 0.3);
    for (const Tuple& t : RandomTuples(rng, 1400, 30, 800, 0.3)) {
      s_tuples.push_back(Tuple({t.value(0), t.value(1)}, t.interval()));
    }
    r = MakeRelation(&disk, TestSchema(), r_tuples, "r");
    s = MakeRelation(&disk, SSchema(), s_tuples, "s");
    auto l = DeriveNaturalJoinLayout(TestSchema(), SSchema());
    layout = *l;
  }

  Disk disk;
  std::vector<Tuple> r_tuples, s_tuples;
  std::unique_ptr<StoredRelation> r, s;
  NaturalJoinLayout layout;
};

// Every executor, with a fault at several points in its execution: the
// call must return a non-OK status mentioning the injected fault (or
// complete successfully if the fault lands after its last I/O).
class ExecutorFaultTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorFaultTest, AllExecutorsPropagateInjectedFaults) {
  const uint64_t fail_after = GetParam();
  for (int algo = 0; algo < 3; ++algo) {
    FaultFixture f;
    StoredRelation out(&f.disk, f.layout.output, "out");
    ExecOptions base;
    base.buffer_pages = 8;
    PartitionJoinOptions pj;
    pj.buffer_pages = 8;
    f.disk.InjectFaultAfter(fail_after);
    StatusOr<JoinRunStats> stats = Status::Internal("");
    switch (algo) {
      case 0:
        stats = NestedLoopVtJoin(f.r.get(), f.s.get(), &out, base);
        break;
      case 1:
        stats = SortMergeVtJoin(f.r.get(), f.s.get(), &out, base);
        break;
      default:
        stats = PartitionVtJoin(f.r.get(), f.s.get(), &out, pj);
    }
    f.disk.ClearFault();
    if (!stats.ok()) {
      EXPECT_EQ(stats.status().code(), StatusCode::kInternal)
          << "algo " << algo << ": " << stats.status().ToString();
      EXPECT_NE(stats.status().message().find("injected"),
                std::string_view::npos);
    }
    // Either way the disk must stay usable afterwards.
    StoredRelation out2(&f.disk, f.layout.output, "out2");
    TEMPO_EXPECT_OK(
        NestedLoopVtJoin(f.r.get(), f.s.get(), &out2, base).status());
  }
}

INSTANTIATE_TEST_SUITE_P(FaultPoints, ExecutorFaultTest,
                         ::testing::Values(0, 1, 7, 50, 300, 2000));

TEST(FaultTest, FaultAfterCompletionIsHarmless) {
  FaultFixture f;
  StoredRelation out(&f.disk, f.layout.output, "out");
  ExecOptions base;
  base.buffer_pages = 16;
  f.disk.InjectFaultAfter(100000000);  // far beyond any I/O this run does
  TEMPO_EXPECT_OK(
      NestedLoopVtJoin(f.r.get(), f.s.get(), &out, base).status());
  f.disk.ClearFault();
}

TEST(FaultTest, ExternalSortPropagates) {
  FaultFixture f;
  f.disk.InjectFaultAfter(5);
  auto sorted = ExternalSortByVs(f.r.get(), 6, "sorted");
  EXPECT_FALSE(sorted.ok());
  f.disk.ClearFault();
}

TEST(FaultTest, ViewBuildPropagates) {
  FaultFixture f;
  MaterializedVtJoinView view(&f.disk, "view");
  f.disk.InjectFaultAfter(10);
  EXPECT_FALSE(view.Build(f.r.get(), f.s.get(), 8).ok());
  f.disk.ClearFault();
}

TEST(FaultTest, PlannerExecutePropagates) {
  FaultFixture f;
  StoredRelation out(&f.disk, f.layout.output, "out");
  ExecOptions base;
  base.buffer_pages = 8;
  f.disk.InjectFaultAfter(3);
  EXPECT_FALSE(ExecutorRowOf(JoinExecutor::kAuto)
                   .run(f.r.get(), f.s.get(), &out, base, nullptr)
                   .ok());
  f.disk.ClearFault();
}

// Deserialization fuzz: arbitrary bytes must never crash — every input
// either round-trips as a valid tuple or yields a Corruption status.
class DeserializeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeserializeFuzzTest, ArbitraryBytesNeverCrash) {
  Random rng(GetParam());
  Schema schema({{"a", ValueType::kInt64},
                 {"b", ValueType::kString},
                 {"c", ValueType::kDouble}});
  for (int trial = 0; trial < 200; ++trial) {
    size_t len = rng.Uniform(200);
    std::string bytes;
    bytes.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Uniform(256)));
    }
    auto result = Tuple::Deserialize(schema, bytes.data(), bytes.size());
    if (result.ok()) {
      // If it parsed, re-serialization must reproduce the input.
      std::string back;
      result->SerializeTo(schema, &back);
      EXPECT_EQ(back, bytes);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeserializeFuzzTest,
                         ::testing::Range<uint64_t>(0, 10));

// Truncation fuzz over real records of every schema shape.
TEST(DeserializeFuzzTest, TruncatedRealRecordsAlwaysRejected) {
  Schema schema({{"a", ValueType::kInt64},
                 {"b", ValueType::kString},
                 {"c", ValueType::kDouble},
                 {"d", ValueType::kString}});
  Tuple t({Value(int64_t{-7}), Value("hello"), Value(2.5), Value("")},
          Interval(-3, 999));
  std::string buf;
  t.SerializeTo(schema, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    auto result = Tuple::Deserialize(schema, buf.data(), cut);
    EXPECT_FALSE(result.ok()) << "cut " << cut;
  }
}

}  // namespace
}  // namespace tempo
