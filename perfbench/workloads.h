// The benchmark's workloads. Each one generates its relations from the
// seed, runs a closed loop of requests against tempo's public API, checks
// every reply against an oracle digest computed before timing starts, and
// in a traced run reports the per-layer metrics.

#ifndef TEMPO_PERFBENCH_WORKLOADS_H_
#define TEMPO_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "spans.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates and loads the relations.
  virtual Status Load(uint64_t seed) = 0;
  /// Creates the scheduler or the service that serves requests. Runs after
  /// the oracle digests were computed (the oracle needs a single-threaded
  /// process).
  virtual Status Start() = 0;

  /// Request shapes; a closed-loop client cycles through them.
  virtual size_t num_shapes() const = 0;
  /// Expected output digest of `shape` from the workload's oracle (run in
  /// a forked child).
  virtual StatusOr<Digest> ComputeExpected(size_t shape) = 0;
  /// Concurrent closed-loop clients.
  virtual uint32_t clients() const = 0;
  /// Issues one untraced request.
  virtual StatusOr<QueryReply> Execute(uint32_t client, size_t shape) = 0;

  /// The traced run: alternates untraced and traced requests until
  /// `deadline`, checking every output, and fills the per-layer metrics.
  /// Failed requests are counted in `result`.
  virtual Status Traced(const std::vector<Digest>& expected, double deadline,
                        SpanRecorder* spans, LayerMetrics* layers,
                        RunResult* result) = 0;
};

/// Scheduler threads of every workload.
inline constexpr uint32_t kWorkloadThreads = 4;

/// 1/32-scale paper join: one client, kAuto (the planner picks the
/// partition join), inputs 8x the buffer, `threads` scheduler threads.
std::unique_ptr<Workload> MakePaperJoin(uint32_t threads);
/// Concurrent query service: four sessions, `threads` scheduler threads, a
/// pool that admits two 64-page reservations, a seeded mix of requests.
std::unique_ptr<Workload> MakeServiceMix(uint32_t threads);
/// Sequenced SPJ pipeline: one client, inputs 8x the buffer, `threads`
/// scheduler threads.
std::unique_ptr<Workload> MakeSequencedPipeline(uint32_t threads);

/// The named workload (null for an unknown name). `threads` overrides the
/// scheduler's thread count; 0 keeps kWorkloadThreads.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint32_t threads = 0);

}  // namespace perfbench

#endif  // TEMPO_PERFBENCH_WORKLOADS_H_
