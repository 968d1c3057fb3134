#include "storage/stored_relation.h"

#include <algorithm>

#include "common/vector_growth.h"

namespace tempo {

StoredRelation::StoredRelation(Disk* disk, Schema schema, std::string name)
    : disk_(disk), schema_(std::move(schema)), name_(std::move(name)) {
  TEMPO_CHECK(disk != nullptr);
  file_ = disk_->CreateFile(name_);
  cum_tuples_.push_back(0);
}

Status StoredRelation::Append(const Tuple& tuple) {
  std::string record;
  tuple.SerializeTo(schema_, &record);
  if (record.size() > kMaxRecordSize) {
    return Status::InvalidArgument("tuple record exceeds page capacity (" +
                                   std::to_string(record.size()) + " bytes)");
  }
  if (!append_buffer_.Fits(record.size())) {
    TEMPO_RETURN_IF_ERROR(Flush());
  }
  auto slot = append_buffer_.AddRecord(record);
  TEMPO_CHECK(slot.has_value());
  ++append_buffer_count_;
  ++num_tuples_;
  return Status::OK();
}

Status StoredRelation::AppendRecord(std::string_view record) {
  if (record.size() > kMaxRecordSize) {
    return Status::InvalidArgument("record exceeds page capacity (" +
                                   std::to_string(record.size()) + " bytes)");
  }
  if (!append_buffer_.Fits(record.size())) {
    TEMPO_RETURN_IF_ERROR(Flush());
  }
  auto slot = append_buffer_.AddRecord(record);
  TEMPO_CHECK(slot.has_value());
  ++append_buffer_count_;
  ++num_tuples_;
  return Status::OK();
}

Status StoredRelation::AppendAll(const std::vector<Tuple>& tuples) {
  for (const auto& t : tuples) {
    TEMPO_RETURN_IF_ERROR(Append(t));
  }
  return Flush();
}

Status StoredRelation::Flush() {
  if (append_buffer_count_ == 0) return Status::OK();
  TEMPO_ASSIGN_OR_RETURN(uint32_t page_no,
                         disk_->AppendPage(file_, append_buffer_));
  (void)page_no;
  cum_tuples_.push_back(cum_tuples_.back() + append_buffer_count_);
  append_buffer_.Reset();
  append_buffer_count_ = 0;
  return Status::OK();
}

Status StoredRelation::Clear() {
  TEMPO_RETURN_IF_ERROR(disk_->Truncate(file_));
  append_buffer_.Reset();
  append_buffer_count_ = 0;
  num_tuples_ = 0;
  cum_tuples_.assign(1, 0);
  return Status::OK();
}

Status StoredRelation::ReadPage(uint32_t page_no, Page* out) {
  return disk_->ReadPage(file_, page_no, out);
}

Status StoredRelation::DecodePage(const Schema& schema, const Page& page,
                                  std::vector<Tuple>* out) {
  for (uint16_t slot = 0; slot < page.num_records(); ++slot) {
    std::string_view rec = page.GetRecord(slot);
    TEMPO_ASSIGN_OR_RETURN(Tuple t,
                           Tuple::Deserialize(schema, rec.data(), rec.size()));
    out->push_back(std::move(t));
  }
  return Status::OK();
}

StatusOr<size_t> StoredRelation::DecodePageAppend(const Schema& schema,
                                                  const Page& page,
                                                  std::vector<Tuple>* arena) {
  const size_t before = arena->size();
  GrowCapacity(arena, before + page.num_records());
  TEMPO_RETURN_IF_ERROR(DecodePage(schema, page, arena));
  return arena->size() - before;
}

StatusOr<size_t> StoredRelation::DecodePageViews(const Schema& schema,
                                                 const Page& page,
                                                 PageTupleArena* arena) {
  return arena->AddPage(schema, page);
}

StatusOr<std::vector<Tuple>> StoredRelation::ReadPageTuples(uint32_t page_no) {
  Page page;
  TEMPO_RETURN_IF_ERROR(ReadPage(page_no, &page));
  std::vector<Tuple> out;
  out.reserve(page.num_records());
  TEMPO_RETURN_IF_ERROR(DecodePage(schema_, page, &out));
  return out;
}

uint32_t StoredRelation::TuplesOnPage(uint32_t page_no) const {
  TEMPO_DCHECK(page_no + 1 < cum_tuples_.size());
  return static_cast<uint32_t>(cum_tuples_[page_no + 1] -
                               cum_tuples_[page_no]);
}

uint32_t StoredRelation::PageOfTuple(uint64_t tuple_index) const {
  TEMPO_DCHECK(tuple_index < cum_tuples_.back());
  auto it = std::upper_bound(cum_tuples_.begin(), cum_tuples_.end(),
                             tuple_index);
  TEMPO_DCHECK(it != cum_tuples_.begin());
  return static_cast<uint32_t>((it - cum_tuples_.begin()) - 1);
}

StatusOr<Tuple> StoredRelation::ReadTupleRandom(uint64_t tuple_index) {
  if (tuple_index >= cum_tuples_.back()) {
    return Status::OutOfRange("tuple index " + std::to_string(tuple_index) +
                              " not flushed to disk");
  }
  uint32_t page_no = PageOfTuple(tuple_index);
  Page page;
  TEMPO_RETURN_IF_ERROR(ReadPage(page_no, &page));
  uint16_t slot = static_cast<uint16_t>(tuple_index - cum_tuples_[page_no]);
  std::string_view rec = page.GetRecord(slot);
  return Tuple::Deserialize(schema_, rec.data(), rec.size());
}

StatusOr<bool> StoredRelation::Scanner::Next(Tuple* out) {
  while (true) {
    if (!page_loaded_) {
      if (page_no_ >= rel_->num_pages()) return false;
      current_.clear();
      Page page;
      TEMPO_RETURN_IF_ERROR(rel_->ReadPage(page_no_, &page));
      TEMPO_RETURN_IF_ERROR(
          DecodePage(rel_->schema(), page, &current_));
      slot_ = 0;
      page_loaded_ = true;
    }
    if (slot_ < current_.size()) {
      *out = std::move(current_[slot_++]);
      return true;
    }
    ++page_no_;
    page_loaded_ = false;
  }
}

StatusOr<std::vector<Tuple>> StoredRelation::ReadAll() {
  std::vector<Tuple> out;
  out.reserve(num_tuples_);
  Scanner scan = Scan();
  Tuple t;
  while (true) {
    TEMPO_ASSIGN_OR_RETURN(bool more, scan.Next(&t));
    if (!more) break;
    out.push_back(t);
  }
  return out;
}

}  // namespace tempo
