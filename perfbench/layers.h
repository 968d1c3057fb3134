// Building blocks of the traced runs: the partition join decomposed into
// its public phase calls, each wrapped in a benchmark span; the
// record-decode probe; and span-tree and sample summaries.

#ifndef TEMPO_PERFBENCH_LAYERS_H_
#define TEMPO_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "harness.h"
#include "join/join_common.h"
#include "obs/trace.h"
#include "parallel/scheduler.h"
#include "spans.h"
#include "storage/page.h"

namespace perfbench {

/// Names of every per-layer metric, in the order a traced run reports
/// them. A workload that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// What a traced run reports: per-layer values by name.
class LayerMetrics {
 public:
  void Set(const std::string& name, double value);
  /// Emits every PerLayerMetrics() name into `result` (0 when unset).
  void EmitInto(RunResult* result) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Per-phase timings of one decomposed partition join.
struct PartitionTrace {
  double total_ms = 0.0;
  double plan_ms = 0.0;  ///< 0 unless the join was planned first
  double determine_ms = 0.0;
  double grace_ms = 0.0;      ///< both inputs, first start to last end
  double grace_cpu_ms = 0.0;  ///< process CPU over the same interval
  double join_ms = 0.0;
  double join_cpu_ms = 0.0;
  uint64_t samples_drawn = 0;
  double sample_io_cost = 0.0;
  double cache_pages_spilled = 0.0;
  double buffer_hit_ratio = 0.0;  ///< over the library's own span tree
  tempo::IoStats io;  ///< charged I/O of the whole join
};

/// Runs r |X|v s as PartitionVtJoin does — DeterminePartIntervals,
/// GracePartition of r and s (concurrently when `scheduler` has a pool),
/// JoinPartitions — with one benchmark span around each public call, under
/// a root span named `root_name`. With `plan_first`, PlanVtJoin runs (and
/// is timed) first and must pick the partition join. `out` receives the
/// result, exactly as an untraced run would write it.
StatusOr<PartitionTrace> TracedPartitionJoin(
    tempo::StoredRelation* r, tempo::StoredRelation* s,
    tempo::StoredRelation* out, const tempo::VtJoinOptions& options,
    tempo::Scheduler* scheduler, bool plan_first, const std::string& root_name,
    uint64_t query, SpanRecorder* spans);

/// Copies every page of `rel` into memory without charging I/O.
StatusOr<std::vector<tempo::Page>> ReadPagesUncharged(
    tempo::StoredRelation* rel);

/// Wall milliseconds of one zero-copy view decode of every page.
StatusOr<double> DecodeMs(const tempo::Schema& schema,
                          const std::vector<tempo::Page>& pages);

/// Summed wall seconds and inclusive I/O of every node of `phase` in an
/// ExecContext span tree.
struct PhaseTotal {
  double seconds = 0.0;
  tempo::IoStats io;
};
PhaseTotal SumPhase(const tempo::SpanNode& root, tempo::Phase phase);

/// Buffer-pool hit ratio over a whole span tree (0 when no pool traffic).
double BufferHitRatio(const tempo::SpanNode& root);

/// Mean charged I/O per query over a request cycle: each shape's I/O
/// (from its first successful sample) weighted by its share of the cycle.
struct MeanIo {
  double pages_read = 0.0;
  double pages_written = 0.0;
  double random_ops = 0.0;
};
MeanIo MeanIoPerQuery(const std::vector<QuerySample>& samples,
                      const std::vector<double>& shape_weights);

/// Ratio of medians, 0 when either side has no samples.
double SpeedupOf(const std::vector<double>& serial,
                 const std::vector<double>& parallel);

}  // namespace perfbench

#endif  // TEMPO_PERFBENCH_LAYERS_H_
