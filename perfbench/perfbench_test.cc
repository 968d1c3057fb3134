// The benchmark's own tests: its oracle choice and its determinism rule.

#include <gtest/gtest.h>

#include "harness.h"
#include "service/join_request.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

StatusOr<Digest> JoinDigest(tempo::StoredRelation* r, tempo::StoredRelation* s,
                            tempo::JoinExecutor executor) {
  TEMPO_ASSIGN_OR_RETURN(tempo::NaturalJoinLayout layout,
                         tempo::DeriveNaturalJoinLayout(r->schema(),
                                                        s->schema()));
  tempo::StoredRelation out(r->disk(), layout.output, "out");
  tempo::JoinRequest request;
  request.From(r, s).Using(executor).BufferPages(16).Model(PaperCostModel());
  TEMPO_RETURN_IF_ERROR(tempo::RunJoin(request, &out).status());
  StatusOr<Digest> d = DigestRelation(&out);
  r->disk()->DeleteFile(out.file_id()).ok();
  return d;
}

// paper_join checks its outputs against the sort-merge executor because the
// quadratic reference join is too slow at the workload's size. Here, at 1/64
// of the paper's scale with the same shape (inputs 8x the buffer), the
// reference oracle, sort-merge and the planner's pick must all agree.
TEST(PerfbenchOracle, SortMergeAgreesWithReferenceJoin) {
  for (uint64_t seed : {1, 2, 3}) {
    tempo::Disk disk;
    tempo::WorkloadSpec spec;
    spec.num_tuples = 262144 / 64;
    spec.num_long_lived = 16000 / 64;
    spec.distinct_keys = 26214 / 64;
    spec.tuple_bytes = 123;
    spec.seed = DeriveSeed(seed, 1);
    auto r = tempo::GenerateRelation(&disk, spec, "r");
    spec.seed = DeriveSeed(seed, 2);
    auto s = tempo::GenerateRelation(&disk, spec, "s");
    ASSERT_TRUE(r.ok() && s.ok());
    StatusOr<Digest> reference =
        JoinDigest(r->get(), s->get(), tempo::JoinExecutor::kReference);
    StatusOr<Digest> sort_merge =
        JoinDigest(r->get(), s->get(), tempo::JoinExecutor::kSortMerge);
    StatusOr<Digest> planned =
        JoinDigest(r->get(), s->get(), tempo::JoinExecutor::kAuto);
    ASSERT_TRUE(reference.ok() && sort_merge.ok() && planned.ok());
    EXPECT_GT(reference->rows, 0u);
    EXPECT_EQ(*sort_merge, *reference) << "seed " << seed;
    EXPECT_EQ(*planned, *reference) << "seed " << seed;
  }
}

// The counts the benchmark reports as deterministic — every request's
// charged I/O (hence io_cost_per_query and the storage.* counts), the
// samples drawn and the tuple-cache pages spilled — repeat exactly from run
// to run and between one scheduler thread and the workload's thread count.
class PerfbenchDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(PerfbenchDeterminism, CountsRepeatAcrossRunsAndThreadCounts) {
  const std::string name = GetParam();
  const uint64_t seed = 7;
  std::vector<std::unique_ptr<Workload>> workloads;
  workloads.push_back(MakeWorkload(name, 1));
  workloads.push_back(MakeWorkload(name, kWorkloadThreads));
  for (auto& w : workloads) {
    ASSERT_TRUE(w->Load(seed).ok());
    ASSERT_TRUE(w->Start().ok());
  }

  // Each request shape, twice on each workload: same output, same I/O.
  const size_t shapes = workloads[0]->num_shapes();
  std::vector<Digest> expected(shapes);
  for (size_t shape = 0; shape < shapes; ++shape) {
    IoStats first_io;
    for (size_t i = 0; i < workloads.size(); ++i) {
      for (int rep = 0; rep < 2; ++rep) {
        StatusOr<QueryReply> reply = workloads[i]->Execute(0, shape);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        StatusOr<Digest> d = DigestRelation(reply->output);
        reply->discard();
        ASSERT_TRUE(d.ok());
        if (i == 0 && rep == 0) {
          expected[shape] = *d;
          first_io = reply->io;
          continue;
        }
        EXPECT_EQ(*d, expected[shape]) << name << " shape " << shape;
        EXPECT_EQ(reply->io, first_io)
            << name << " shape " << shape << ": " << reply->io.ToString()
            << " vs " << first_io.ToString();
      }
    }
  }

  // The traced runs' counts.
  const std::vector<std::string> counts = {
      "storage.pages_read_per_query", "storage.pages_written_per_query",
      "storage.random_io_per_query",  "sampling.samples_drawn",
      "sampling.io_cost",             "core.cache_pages_spilled",
      "query.intermediate_pages_written"};
  std::vector<std::vector<double>> traced;
  for (size_t run = 0; run < 3; ++run) {
    Workload* w = workloads[run == 0 ? 0 : 1].get();
    SpanRecorder spans;
    LayerMetrics layers;
    RunResult result;
    ASSERT_TRUE(
        w->Traced(expected, WallSeconds() + 4.0, &spans, &layers, &result)
            .ok());
    EXPECT_TRUE(result.correct);
    EXPECT_EQ(result.failed, 0u);
    layers.EmitInto(&result);
    std::vector<double> values;
    for (const std::string& key : counts) {
      for (const Metric& m : result.metrics) {
        if (m.name == key) values.push_back(m.value);
      }
    }
    ASSERT_EQ(values.size(), counts.size());
    traced.push_back(values);
  }
  for (size_t run = 1; run < traced.size(); ++run) {
    for (size_t k = 0; k < counts.size(); ++k) {
      EXPECT_EQ(traced[run][k], traced[0][k]) << name << " " << counts[k];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerfbenchDeterminism,
                         ::testing::Values("paper_join", "service_mix",
                                           "sequenced_pipeline"));

}  // namespace
}  // namespace perfbench
