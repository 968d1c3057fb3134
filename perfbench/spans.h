// The benchmark's own span recorder for traced runs. Spans are recorded
// from benchmark code around calls into tempo's public functions; nothing
// inside the library is instrumented. Spans live in memory until the run
// ends, then go to one Chrome trace-event file (loadable in Perfetto).

#ifndef TEMPO_PERFBENCH_SPANS_H_
#define TEMPO_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"
#include "storage/io_accountant.h"

namespace perfbench {

/// One finished span.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = top level
  uint64_t query = 0;   ///< spans of one query share this id
  std::string name;
  double start = 0.0;  ///< WallSeconds()
  double end = 0.0;
  double thread_cpu = 0.0;   ///< CPU of the span's own thread, seconds
  double process_cpu = 0.0;  ///< CPU of all threads over the span, seconds
  /// Charged I/O: issued by the span's own thread while no deeper
  /// collector was open, and the accountant's total change over the span
  /// (equal when nothing else charged the accountant meanwhile).
  tempo::IoStats thread_io;
  tempo::IoStats total_io;
  uint32_t thread = 0;  ///< small per-run thread number
  double seconds() const { return end - start; }
};

class SpanRecorder {
 public:
  /// RAII span. Must end on the thread that opened it.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { End(); }
    uint64_t id() const { return record_.id; }
    /// Replaces the span's I/O (for requests whose I/O lands on a private
    /// accountant the benchmark cannot observe directly).
    void SetIo(const tempo::IoStats& io) {
      record_.thread_io = io;
      record_.total_io = io;
      io_overridden_ = true;
    }
    /// Closes the span (idempotent); returns its wall seconds.
    double End();
    /// The span as recorded; complete once End() ran.
    const SpanRecord& record() const { return record_; }
    void SetQuery(uint64_t query) { record_.query = query; }

   private:
    friend class SpanRecorder;
    Scope(SpanRecorder* recorder, SpanRecord record,
          tempo::IoAccountant* accountant);
    SpanRecorder* recorder_;
    SpanRecord record_;
    tempo::IoAccountant* accountant_;
    tempo::IoStats collector_;
    tempo::IoStats total_at_start_;
    bool open_ = true;
    bool io_overridden_ = false;
  };

  /// Opens a span under `parent` (0 = top level). `accountant`, when
  /// non-null, is observed for the span's charged I/O.
  Scope Open(const std::string& name, uint64_t query, uint64_t parent = 0,
             tempo::IoAccountant* accountant = nullptr);

  /// Records `node` of an ExecContext span tree, with its descendants, as
  /// spans under `parent` — for phases the library traces inside a call
  /// the benchmark wrapped in span `parent`. The tree keeps only summed
  /// wall time per node, so the copies are laid out one after another
  /// from the parent's start: their durations are measured, their start
  /// times are not.
  void AddContextNode(const tempo::SpanNode& node, uint64_t query,
                      uint64_t parent);

  std::vector<SpanRecord> spans() const;

  /// Writes every span as a Chrome trace "X" event with its parent, query,
  /// CPU, I/O and self time (the span's duration minus the part of it its
  /// direct children cover) in args.
  tempo::Status WriteChromeTrace(const std::string& path) const;

 private:
  void Finish(const SpanRecord& record);
  uint32_t ThreadNumber();

  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  uint64_t next_id_ = 1;
  std::map<std::thread::id, uint32_t> threads_;
};

}  // namespace perfbench

#endif  // TEMPO_PERFBENCH_SPANS_H_
