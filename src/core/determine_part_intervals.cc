#include "core/determine_part_intervals.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "core/choose_intervals.h"
#include "core/estimate_cache.h"
#include "sampling/relation_sampler.h"

namespace tempo {

namespace {

/// Outer-partition write+read component of C_join (Appendix A.2).
double PartitionComponent(uint32_t num_partitions, uint32_t part_size,
                          const CostModel& model) {
  return 2.0 * (static_cast<double>(num_partitions) * model.random_weight +
                static_cast<double>(part_size - 1) *
                    static_cast<double>(num_partitions) *
                    model.sequential_weight);
}

/// Tuple-cache write+read component of C_join (Appendix A.2).
double CacheComponent(const std::vector<uint64_t>& cache_pages,
                      const CostModel& model) {
  double cost = 0.0;
  for (uint64_t m : cache_pages) {
    if (m == 0) continue;
    cost += 2.0 * (model.random_weight +
                   static_cast<double>(m - 1) * model.sequential_weight);
  }
  return cost;
}

/// Shared sweep state: incremental sampling plus one coverage index that
/// grows with the sample set and answers every candidate's boundary and
/// cache questions, and the final plan's.
class CandidateSweep {
 public:
  CandidateSweep(StoredRelation* r, const PartitionPlanOptions& options,
                 Random* rng, ExecContext* ctx = nullptr)
      : options_(options),
        ctx_(ctx),
        pages_(r->num_pages()),
        tuples_(r->num_tuples()),
        tuples_per_page_(static_cast<double>(tuples_) /
                         static_cast<double>(pages_)),
        sampler_(r, rng),
        scan_cost_(sampler_.ScanCost(options.cost_model.random_weight)),
        index_(std::span<const Interval>()) {}

  /// Candidate partition sizes, ascending (see header notes).
  std::vector<uint32_t> Candidates() const {
    const uint32_t area = options_.buffer_pages - 3;
    const uint32_t k_max = options_.buffer_pages - 1;
    uint32_t k_fit = area > 0 ? (pages_ + area - 1) / area : pages_;
    k_fit = std::max<uint32_t>(2, k_fit);
    const uint32_t k_lo = std::min(k_fit, k_max);
    std::vector<uint32_t> candidates;
    for (uint32_t k = k_max; k >= k_lo && k >= 2; --k) {
      uint32_t ps = (pages_ + k - 1) / k;
      if (!candidates.empty() && candidates.back() == ps) continue;
      candidates.push_back(ps);
    }
    if (candidates.empty()) candidates.push_back((pages_ + k_lo - 1) / k_lo);
    return candidates;
  }

  /// Section 4.2's optimization, applied up front: the sweep will
  /// eventually need the sample count of its *largest* candidate, so if
  /// that already exceeds the sequential-scan break-even point, scan now
  /// instead of paying for random draws that the scan would supersede.
  Status PlanSampling(const std::vector<uint32_t>& candidates) {
    if (!options_.in_scan_sampling || candidates.empty()) {
      return Status::OK();
    }
    const uint32_t area = options_.buffer_pages - 3;
    uint32_t max_ps = candidates.back();
    uint32_t error_size = area > max_ps ? area - max_ps : 1;
    uint64_t m = RequiredKolmogorovSamples(pages_, error_size,
                                           options_.kolmogorov_critical);
    m = std::min<uint64_t>(m, sampler_.population());
    if (static_cast<double>(m) * options_.cost_model.random_weight >
        scan_cost_) {
      TraceSpan span = SpanIf(ctx_, Phase::kSampling);
      TEMPO_RETURN_IF_ERROR(sampler_.SwitchToScan());
    }
    return Status::OK();
  }

  /// Ensures the Kolmogorov-required samples for `part_size` are drawn
  /// (random reads, or one scan once that is cheaper) and returns the
  /// estimated C_sample.
  StatusOr<double> EnsureSamples(uint32_t part_size) {
    const uint32_t area = options_.buffer_pages - 3;
    uint32_t error_size = area > part_size ? area - part_size : 1;
    uint64_t m = RequiredKolmogorovSamples(pages_, error_size,
                                           options_.kolmogorov_critical);
    m = std::min<uint64_t>(m, sampler_.population());
    double est = static_cast<double>(m) * options_.cost_model.random_weight;
    if (options_.in_scan_sampling && est > scan_cost_) {
      TraceSpan span = SpanIf(ctx_, Phase::kSampling);
      TEMPO_RETURN_IF_ERROR(sampler_.SwitchToScan());
      est = scan_cost_;
    }
    if (m > sampler_.num_drawn()) {
      TraceSpan span = SpanIf(ctx_, Phase::kSampling);
      TEMPO_RETURN_IF_ERROR(
          sampler_.DrawRandom(m - sampler_.num_drawn()).status());
    }
    return est;
  }

  /// Cost-model view of one candidate. Merges the samples drawn for it
  /// into the coverage index.
  StatusOr<PartitionCostPoint> Evaluate(uint32_t part_size) {
    PartitionCostPoint point;
    point.part_size_pages = part_size;
    TEMPO_ASSIGN_OR_RETURN(point.c_sample, EnsureSamples(part_size));
    point.required_samples = sampler_.num_drawn();
    index_.Extend(std::span(sampler_.samples()).subspan(index_.size()));
    uint32_t k = (pages_ + part_size - 1) / part_size;
    std::vector<uint64_t> cache = CachePages(index_.Choose(k));
    // The paper's formula uses the *nominal* partition count
    // numPartitions = |r| / partSize (Appendix A.2), not the possibly
    // collapsed count of the sample-derived spec: early candidates are
    // evaluated from few samples, and a collapsed spec would make many
    // small partitions look spuriously cheap.
    point.num_partitions = k;
    point.c_partition =
        PartitionComponent(k, part_size, options_.cost_model);
    point.c_cache = CacheComponent(cache, options_.cost_model);
    return point;
  }

  /// The plan for `num_partitions` sample-equi-depth partitions over every
  /// sample drawn so far (a free refinement: each has been paid for), with
  /// the estimates of the candidate `point` that chose it.
  PartitionPlan Plan(uint32_t num_partitions,
                     const PartitionCostPoint& point) const {
    PartitionPlan plan;
    plan.spec = index_.Choose(num_partitions);
    plan.num_partitions = static_cast<uint32_t>(plan.spec.num_partitions());
    plan.part_size_pages = point.part_size_pages;
    plan.samples_drawn = sampler_.num_drawn();
    plan.sampled_by_scan = sampler_.scanned();
    plan.est_sample_cost = point.c_sample;
    plan.est_join_cost = point.c_partition + point.c_cache;
    plan.est_cache_pages = CachePages(plan.spec);
    return plan;
  }

  uint32_t pages() const { return pages_; }

 private:
  std::vector<uint64_t> CachePages(const PartitionSpec& spec) const {
    return EstimateCacheSizes(index_, tuples_, tuples_per_page_, spec);
  }

  const PartitionPlanOptions& options_;
  ExecContext* ctx_;
  const uint32_t pages_;
  const uint64_t tuples_;
  const double tuples_per_page_;
  RelationSampler sampler_;
  const double scan_cost_;
  CoverageIndex index_;  // every sample drawn so far (draws only in Evaluate)
};

/// True when the relation needs no partitioning under these options.
bool TrivialFit(StoredRelation* r, const PartitionPlanOptions& options) {
  return options.forced_num_partitions <= 1 &&
         r->num_pages() <= options.buffer_pages - 3;
}

PartitionPlan TrivialPlan(StoredRelation* r,
                          const PartitionPlanOptions& options) {
  PartitionPlan plan;
  plan.part_size_pages = r->num_pages();
  plan.num_partitions = 1;
  plan.est_join_cost = r->num_pages() == 0
                           ? 0.0
                           : options.cost_model.random_weight +
                                 static_cast<double>(r->num_pages() - 1);
  plan.est_cache_pages.assign(1, 0);
  return plan;
}

}  // namespace

StatusOr<PartitionPlan> DeterminePartIntervals(
    StoredRelation* r, const PartitionPlanOptions& options, Random* rng,
    ExecContext* ctx) {
  if (options.buffer_pages < 4) {
    return Status::InvalidArgument(
        "partition planning needs at least 4 buffer pages");
  }
  if (r->num_pages() == 0 || r->num_tuples() == 0 ||
      TrivialFit(r, options)) {
    return TrivialPlan(r, options);
  }

  CandidateSweep sweep(r, options, rng, ctx);

  // Forced partition count: sample for the corresponding size and return.
  if (options.forced_num_partitions > 1) {
    uint32_t k = options.forced_num_partitions;
    uint32_t part_size = (sweep.pages() + k - 1) / k;
    TEMPO_ASSIGN_OR_RETURN(PartitionCostPoint point, sweep.Evaluate(part_size));
    return sweep.Plan(k, point);
  }

  double best_cost = std::numeric_limits<double>::infinity();
  PartitionCostPoint best;
  const std::vector<uint32_t> candidates = sweep.Candidates();
  TEMPO_RETURN_IF_ERROR(sweep.PlanSampling(candidates));
  for (uint32_t part_size : candidates) {
    TEMPO_ASSIGN_OR_RETURN(PartitionCostPoint point, sweep.Evaluate(part_size));
    if (point.total() <= best_cost) {
      best_cost = point.total();
      best = point;
    }
  }

  // Re-choose the winning spec from the full sample set.
  return sweep.Plan(best.num_partitions, best);
}

StatusOr<std::vector<PartitionCostPoint>> PartitionCostCurve(
    StoredRelation* r, const PartitionPlanOptions& options, Random* rng) {
  if (options.buffer_pages < 4) {
    return Status::InvalidArgument(
        "partition planning needs at least 4 buffer pages");
  }
  std::vector<PartitionCostPoint> curve;
  if (r->num_pages() == 0 || r->num_tuples() == 0 ||
      TrivialFit(r, options)) {
    return curve;
  }
  CandidateSweep sweep(r, options, rng);
  const std::vector<uint32_t> candidates = sweep.Candidates();
  TEMPO_RETURN_IF_ERROR(sweep.PlanSampling(candidates));
  for (uint32_t part_size : candidates) {
    TEMPO_ASSIGN_OR_RETURN(PartitionCostPoint point, sweep.Evaluate(part_size));
    curve.push_back(point);
  }
  return curve;
}

}  // namespace tempo
