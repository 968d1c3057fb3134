#include "spans.h"

#include <algorithm>
#include <fstream>

#include "common/json.h"
#include "harness.h"

namespace perfbench {

namespace {

tempo::Json IoJson(const tempo::IoStats& io) {
  tempo::Json j = tempo::Json::Object();
  j.Set("random_reads", io.random_reads);
  j.Set("sequential_reads", io.sequential_reads);
  j.Set("random_writes", io.random_writes);
  j.Set("sequential_writes", io.sequential_writes);
  j.Set("cost", io.Cost(PaperCostModel()));
  return j;
}

/// Seconds of `span` not covered by any of its direct `children`.
double SelfSeconds(const SpanRecord& span,
                   const std::vector<const SpanRecord*>& children) {
  std::vector<std::pair<double, double>> covered;
  for (const SpanRecord* c : children) {
    const double a = std::max(c->start, span.start);
    const double b = std::min(c->end, span.end);
    if (b > a) covered.emplace_back(a, b);
  }
  std::sort(covered.begin(), covered.end());
  double covered_seconds = 0.0;
  double reach = span.start;
  for (const auto& [a, b] : covered) {
    const double from = std::max(a, reach);
    if (b > from) covered_seconds += b - from;
    reach = std::max(reach, b);
  }
  return std::max(0.0, span.seconds() - covered_seconds);
}

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder* recorder, SpanRecord record,
                           tempo::IoAccountant* accountant)
    : recorder_(recorder), record_(std::move(record)), accountant_(accountant) {
  if (accountant_ != nullptr) {
    total_at_start_ = accountant_->stats();
    accountant_->PushThreadCollector(&collector_);
  }
  record_.process_cpu = ProcessCpuSeconds();
  record_.thread_cpu = ThreadCpuSeconds();
  record_.start = WallSeconds();
}

double SpanRecorder::Scope::End() {
  if (!open_) return record_.seconds();
  open_ = false;
  record_.end = WallSeconds();
  record_.thread_cpu = ThreadCpuSeconds() - record_.thread_cpu;
  record_.process_cpu = ProcessCpuSeconds() - record_.process_cpu;
  if (accountant_ != nullptr) {
    accountant_->PopThreadCollector(&collector_);
    if (!io_overridden_) {
      record_.thread_io = collector_;
      record_.total_io = accountant_->stats() - total_at_start_;
    }
  }
  recorder_->Finish(record_);
  return record_.seconds();
}

SpanRecorder::Scope SpanRecorder::Open(const std::string& name, uint64_t query,
                                       uint64_t parent,
                                       tempo::IoAccountant* accountant) {
  SpanRecord record;
  {
    std::lock_guard<std::mutex> lock(mu_);
    record.id = next_id_++;
  }
  record.parent = parent;
  record.query = query;
  record.name = name;
  record.thread = ThreadNumber();
  return Scope(this, std::move(record), accountant);
}

uint32_t SpanRecorder::ThreadNumber() {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = threads_.emplace(
      std::this_thread::get_id(), static_cast<uint32_t>(threads_.size()));
  return it->second;
}

void SpanRecorder::Finish(const SpanRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(record);
}

void SpanRecorder::AddContextNode(const tempo::SpanNode& node, uint64_t query,
                                  uint64_t parent) {
  double parent_start = 0.0;
  uint32_t thread = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord& s : spans_) {
      if (s.id == parent) {
        parent_start = s.start;
        thread = s.thread;
      }
    }
  }
  struct Frame {
    const tempo::SpanNode* node;
    uint64_t parent;
    double start;
  };
  std::vector<Frame> stack = {{&node, parent, parent_start}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    SpanRecord record;
    {
      std::lock_guard<std::mutex> lock(mu_);
      record.id = next_id_++;
    }
    record.parent = f.parent;
    record.query = query;
    record.name = std::string("ctx.") + tempo::PhaseName(f.node->phase);
    if (!f.node->label.empty()) record.name += " [" + f.node->label + "]";
    record.start = f.start;
    record.end = f.start + f.node->stats.wall_seconds;
    record.thread_io = f.node->stats.io;
    record.total_io = f.node->InclusiveIo();
    record.thread = thread;
    Finish(record);
    double cursor = f.start;
    std::vector<Frame> children;
    for (const auto& child : f.node->children) {
      children.push_back({child.get(), record.id, cursor});
      cursor += child->stats.wall_seconds;
    }
    stack.insert(stack.end(), children.rbegin(), children.rend());
  }
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

tempo::Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : all) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  double origin = all.empty() ? 0.0 : all.front().start;
  for (const SpanRecord& s : all) origin = std::min(origin, s.start);
  tempo::Json events = tempo::Json::Array();
  for (const SpanRecord& s : all) {
    tempo::Json args = tempo::Json::Object();
    args.Set("span", s.id);
    args.Set("parent", s.parent);
    args.Set("query", s.query);
    args.Set("self_us", SelfSeconds(s, children[s.id]) * 1e6);
    args.Set("thread_cpu_us", s.thread_cpu * 1e6);
    args.Set("process_cpu_us", s.process_cpu * 1e6);
    args.Set("thread_io", IoJson(s.thread_io));
    args.Set("total_io", IoJson(s.total_io));
    tempo::Json e = tempo::Json::Object();
    e.Set("name", s.name);
    e.Set("ph", "X");
    e.Set("ts", (s.start - origin) * 1e6);
    e.Set("dur", s.seconds() * 1e6);
    e.Set("pid", 1);
    e.Set("tid", static_cast<uint64_t>(s.thread));
    e.Set("args", std::move(args));
    events.Append(std::move(e));
  }
  tempo::Json root = tempo::Json::Object();
  root.Set("traceEvents", std::move(events));
  root.Set("displayTimeUnit", "ms");
  std::ofstream out(path);
  if (!out) return tempo::Status::Internal("cannot write span file " + path);
  out << root.Dump() << "\n";
  if (!out) return tempo::Status::Internal("short write to " + path);
  return tempo::Status::OK();
}

}  // namespace perfbench
