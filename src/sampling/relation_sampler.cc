#include "sampling/relation_sampler.h"

#include <numeric>

#include "relation/tuple_view.h"

namespace tempo {

RelationSampler::RelationSampler(StoredRelation* relation, Random* rng)
    : relation_(relation), rng_(rng) {
  TEMPO_CHECK(relation != nullptr);
  TEMPO_CHECK(rng != nullptr);
  population_ = relation->num_tuples();
  permutation_.resize(population_);
  std::iota(permutation_.begin(), permutation_.end(), 0);
  rng_->Shuffle(permutation_);
}

StatusOr<uint64_t> RelationSampler::DrawRandom(uint64_t count) {
  uint64_t available = population_ - next_;
  uint64_t to_draw = count < available ? count : available;
  for (uint64_t i = 0; i < to_draw; ++i) {
    uint64_t ordinal = permutation_[next_++];
    if (scanned_) {
      drawn_.push_back(all_intervals_[ordinal]);
    } else {
      TEMPO_ASSIGN_OR_RETURN(Tuple t, relation_->ReadTupleRandom(ordinal));
      drawn_.push_back(t.interval());
    }
  }
  return to_draw;
}

Status RelationSampler::SwitchToScan() {
  if (scanned_) return Status::OK();
  all_intervals_.clear();
  all_intervals_.reserve(population_);
  // The page reads of a full Scanner pass (same pages, same order, same
  // charges), but only each record's interval is decoded: a TupleView
  // validates the record like Tuple::Deserialize without materializing
  // its attribute values.
  const RecordLayout& layout = relation_->schema().layout();
  Page page;
  for (uint32_t page_no = 0; page_no < relation_->num_pages(); ++page_no) {
    TEMPO_RETURN_IF_ERROR(relation_->ReadPage(page_no, &page));
    for (uint16_t slot = 0; slot < page.num_records(); ++slot) {
      std::string_view rec = page.GetRecord(slot);
      TEMPO_ASSIGN_OR_RETURN(TupleView view,
                             TupleView::Make(layout, rec.data(), rec.size()));
      all_intervals_.push_back(view.interval());
    }
  }
  TEMPO_CHECK(all_intervals_.size() == population_);
  scanned_ = true;
  return Status::OK();
}

double RelationSampler::EstimateDrawCost(uint64_t additional,
                                         double random_weight) const {
  if (scanned_) return 0.0;
  return static_cast<double>(additional) * random_weight;
}

double RelationSampler::ScanCost(double random_weight) const {
  if (scanned_) return 0.0;
  uint32_t pages = relation_->num_pages();
  if (pages == 0) return 0.0;
  return random_weight + static_cast<double>(pages - 1);
}

}  // namespace tempo
