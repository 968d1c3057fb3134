// Shared machinery of the tempo benchmark: clocks, exact quantiles, output
// digests, the closed-loop runner that produces the end-to-end metrics, and
// the result line every run prints.

#ifndef TEMPO_PERFBENCH_HARNESS_H_
#define TEMPO_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "storage/io_accountant.h"
#include "storage/stored_relation.h"
#include "workload/generator.h"

namespace perfbench {

using tempo::IoStats;
using tempo::Status;
using tempo::StatusOr;
using tempo::StoredRelation;

/// The paper's cost model; io_cost_per_query and sampling.io_cost use it.
tempo::CostModel PaperCostModel();

double WallSeconds();        ///< steady clock
double ThreadCpuSeconds();   ///< CPU time of the calling thread
double ProcessCpuSeconds();  ///< CPU time of every thread of the process
double PeakRssMiB();         ///< getrusage(RUSAGE_SELF).ru_maxrss

/// Exact quantile of `values` by linear interpolation between closest
/// ranks (q in [0, 1]); 0 for an empty vector.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// A derived 64-bit seed: the same (seed, stream) always gives the same
/// value, and different streams give unrelated values.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Output digest: cardinality plus a 64-bit FNV-1a hash of the sorted
/// serialized rows (interval included), so two outputs agree exactly when
/// they hold the same multiset of rows.
struct Digest {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Digest& o) const {
    return rows == o.rows && hash == o.hash;
  }
  std::string ToString() const;
};

/// Digests `rel`. The relation's file is first marked uncharged, so reading
/// it neither counts as I/O nor moves the simulated disk head.
StatusOr<Digest> DigestRelation(StoredRelation* rel);

/// Runs `compute(0)` .. `compute(n - 1)` in `n` concurrently forked
/// children and returns their digests in order. The oracles run there so
/// their memory and CPU stay out of the parent's peak RSS and CPU metrics.
/// Call only while the process has a single thread.
StatusOr<std::vector<Digest>> ComputeInChildren(
    size_t n, const std::function<StatusOr<Digest>(size_t)>& compute);

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run prints as its last line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ToJson() const;
};

/// One query of a closed loop, as its client saw it.
struct QuerySample {
  size_t shape = 0;
  double start = 0.0;  ///< WallSeconds() when the request was issued
  double end = 0.0;    ///< WallSeconds() when its reply arrived
  bool ok = false;     ///< executed without error and the output matched
  IoStats io;          ///< charged I/O of the query
  double admission_wait_ms = 0.0;  ///< service queries only
  double latency_ms() const { return (end - start) * 1e3; }
};

/// The reply to one request: the output to check and what the query
/// charged. `discard` deletes the output once it has been checked.
struct QueryReply {
  StoredRelation* output = nullptr;
  IoStats io;
  double admission_wait_ms = 0.0;
  uint64_t query_id = 0;  ///< service queries only
  std::function<void()> discard;
};

/// Issues one request of `shape` for `client` and blocks for its reply.
using ExecuteFn =
    std::function<StatusOr<QueryReply>(uint32_t client, size_t shape)>;

/// The closed-loop runner: `clients` threads (the calling thread when
/// there is one client) each walk their own request cycle and send the
/// next request only after the previous reply arrived and its output was
/// checked against `expected[shape]`. The check runs outside the timed
/// request. Stops issuing at `deadline` (a WallSeconds() value).
struct LoopStats {
  std::vector<QuerySample> samples;
  double busy_seconds = 0.0;  ///< time with at least one request in flight
  double cpu_seconds = 0.0;   ///< process CPU, output checks excluded
  uint64_t mismatches = 0;
  std::vector<std::string> errors;
};
LoopStats RunClosedLoop(uint32_t clients,
                        const std::vector<std::vector<size_t>>& cycles,
                        const ExecuteFn& execute,
                        const std::vector<Digest>& expected,
                        double deadline);

/// Issues one request and checks its output; the shared body of the
/// closed loop, also used for warm-up and traced runs.
QuerySample RunChecked(uint32_t client, size_t shape, const ExecuteFn& execute,
                       const std::vector<Digest>& expected,
                       std::string* error, double* check_cpu_seconds);

/// The eight end-to-end metrics of one closed-loop run. `shape_weights`
/// weights each request shape's charged I/O by its share of the request
/// cycle. A shape whose requests charged different I/O, or that never
/// completed, makes the run incorrect.
void AddEndToEndMetrics(const LoopStats& loop, double setup_seconds,
                        const std::vector<double>& shape_weights,
                        RunResult* result);

/// Generates a relation with the paper's generator, naming the padding
/// attribute `pad_name` (two relations whose padding attributes differ
/// join on "key" alone).
StatusOr<std::unique_ptr<StoredRelation>> GenerateKeyed(
    tempo::Disk* disk, const tempo::WorkloadSpec& spec, const std::string& name,
    const std::string& pad_name);

/// Cycle of request shapes for one client: `shapes` shuffled by the seed.
std::vector<size_t> ShuffledCycle(size_t shapes, uint64_t seed);

}  // namespace perfbench

#endif  // TEMPO_PERFBENCH_HARNESS_H_
