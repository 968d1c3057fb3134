#include "harness.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "common/json.h"
#include "relation/tuple_view.h"
#include "storage/page_arena.h"

namespace perfbench {

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Measure of the union of [start, end) intervals.
double UnionSeconds(std::vector<std::pair<double, double>> spans) {
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = -1.0;
  bool open = false;
  for (const auto& [s, e] : spans) {
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t w = write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    ssize_t r = read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

}  // namespace

tempo::CostModel PaperCostModel() { return tempo::CostModel::Ratio(5.0); }

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over the pair.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
               0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string Digest::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu rows/%016llx",
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(hash));
  return buf;
}

StatusOr<Digest> DigestRelation(StoredRelation* rel) {
  TEMPO_RETURN_IF_ERROR(rel->SetCharged(false));
  std::vector<std::string> rows;
  rows.reserve(rel->num_tuples());
  tempo::PageTupleArena arena;
  const uint32_t pages = rel->num_pages();
  for (uint32_t p = 0; p < pages; ++p) {
    tempo::Page page;
    TEMPO_RETURN_IF_ERROR(rel->ReadPage(p, &page));
    arena.Clear();
    TEMPO_RETURN_IF_ERROR(
        StoredRelation::DecodePageViews(rel->schema(), page, &arena).status());
    for (const tempo::TupleView& v : arena.views()) {
      rows.emplace_back(v.record());
    }
  }
  std::sort(rows.begin(), rows.end());
  Digest d;
  d.rows = rows.size();
  d.hash = kFnvOffset;
  for (const std::string& row : rows) {
    const uint64_t len = row.size();
    d.hash = FnvBytes(d.hash, &len, sizeof(len));
    d.hash = FnvBytes(d.hash, row.data(), row.size());
  }
  return d;
}

StatusOr<std::vector<Digest>> ComputeInChildren(
    size_t n, const std::function<StatusOr<Digest>(size_t)>& compute) {
  std::fflush(stdout);
  std::fflush(stderr);
  struct Child {
    pid_t pid = -1;
    int fd = -1;
  };
  std::vector<Child> children;
  bool spawned = true;
  for (size_t i = 0; i < n && spawned; ++i) {
    int fds[2];
    if (pipe(fds) != 0) {
      spawned = false;
      break;
    }
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      StatusOr<Digest> d = compute(i);
      int code = 0;
      if (!d.ok()) {
        std::fprintf(stderr, "oracle %zu: %s\n", i,
                     d.status().ToString().c_str());
        code = 2;
      } else if (!WriteAll(fds[1], &d->rows, sizeof(d->rows)) ||
                 !WriteAll(fds[1], &d->hash, sizeof(d->hash))) {
        code = 3;
      }
      close(fds[1]);
      _exit(code);
    }
    close(fds[1]);
    if (pid < 0) {
      close(fds[0]);
      spawned = false;
      break;
    }
    children.push_back({pid, fds[0]});
  }
  // Collect every child that started, even after a failure.
  std::vector<Digest> out;
  bool ok = spawned;
  for (Child& c : children) {
    Digest d;
    ok = ReadAll(c.fd, &d.rows, sizeof(d.rows)) &&
         ReadAll(c.fd, &d.hash, sizeof(d.hash)) && ok;
    close(c.fd);
    int wstatus = 0;
    while (waitpid(c.pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    ok = ok && WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
    out.push_back(d);
  }
  if (!ok) return Status::Internal("an oracle child failed");
  return out;
}

std::string RunResult::ToJson() const {
  tempo::Json metrics_json = tempo::Json::Object();
  for (const Metric& m : metrics) {
    tempo::Json entry = tempo::Json::Object();
    entry.Set("value", m.value);
    entry.Set("unit", m.unit);
    metrics_json.Set(m.name, std::move(entry));
  }
  tempo::Json root = tempo::Json::Object();
  root.Set("correct", correct);
  root.Set("attempted", attempted);
  root.Set("failed", failed);
  root.Set("metrics", std::move(metrics_json));
  return root.Dump();
}

QuerySample RunChecked(uint32_t client, size_t shape, const ExecuteFn& execute,
                       const std::vector<Digest>& expected,
                       std::string* error, double* check_cpu_seconds) {
  QuerySample sample;
  sample.shape = shape;
  sample.start = WallSeconds();
  StatusOr<QueryReply> reply = execute(client, shape);
  sample.end = WallSeconds();
  if (!reply.ok()) {
    *error = reply.status().ToString();
    return sample;
  }
  const double cpu0 = ThreadCpuSeconds();
  StatusOr<Digest> digest = DigestRelation(reply->output);
  if (reply->discard) reply->discard();
  *check_cpu_seconds += ThreadCpuSeconds() - cpu0;
  sample.io = reply->io;
  sample.admission_wait_ms = reply->admission_wait_ms;
  if (!digest.ok()) {
    *error = digest.status().ToString();
  } else if (!(*digest == expected.at(shape))) {
    *error = "output mismatch on shape " + std::to_string(shape) + ": got " +
             digest->ToString() + ", expected " +
             expected.at(shape).ToString();
  } else {
    sample.ok = true;
  }
  return sample;
}

LoopStats RunClosedLoop(uint32_t clients,
                        const std::vector<std::vector<size_t>>& cycles,
                        const ExecuteFn& execute,
                        const std::vector<Digest>& expected,
                        double deadline) {
  std::mutex mu;
  LoopStats stats;
  double check_cpu = 0.0;
  auto client_body = [&](uint32_t client) {
    const std::vector<size_t>& cycle = cycles[client];
    std::vector<QuerySample> local;
    std::vector<std::string> errors;
    double local_check_cpu = 0.0;
    for (size_t i = 0; WallSeconds() < deadline; ++i) {
      std::string error;
      local.push_back(RunChecked(client, cycle[i % cycle.size()], execute,
                                 expected, &error, &local_check_cpu));
      if (!error.empty()) errors.push_back(std::move(error));
    }
    std::lock_guard<std::mutex> lock(mu);
    stats.samples.insert(stats.samples.end(), local.begin(), local.end());
    stats.errors.insert(stats.errors.end(), errors.begin(), errors.end());
    check_cpu += local_check_cpu;
  };
  const double cpu0 = ProcessCpuSeconds();
  if (clients <= 1) {
    client_body(0);
  } else {
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < clients; ++c) threads.emplace_back(client_body, c);
    for (std::thread& t : threads) t.join();
  }
  stats.cpu_seconds = ProcessCpuSeconds() - cpu0 - check_cpu;
  std::vector<std::pair<double, double>> spans;
  for (const QuerySample& s : stats.samples) {
    spans.emplace_back(s.start, s.end);
    if (!s.ok) ++stats.mismatches;
  }
  stats.busy_seconds = UnionSeconds(std::move(spans));
  return stats;
}

void AddEndToEndMetrics(const LoopStats& loop, double setup_seconds,
                        const std::vector<double>& shape_weights,
                        RunResult* result) {
  std::vector<double> latencies;
  std::map<size_t, IoStats> io_by_shape;
  uint64_t completed = 0;
  for (const QuerySample& s : loop.samples) {
    if (!s.ok) continue;
    ++completed;
    latencies.push_back(s.latency_ms());
    auto [it, inserted] = io_by_shape.emplace(s.shape, s.io);
    // Charged I/O is a pure function of the request: a query of a shape
    // whose I/O differs from an earlier one of the same shape breaks the
    // repository's determinism rule.
    if (!inserted && !(it->second == s.io)) result->correct = false;
  }
  double weighted_cost = 0.0;
  double weight_total = 0.0;
  for (size_t shape = 0; shape < shape_weights.size(); ++shape) {
    auto it = io_by_shape.find(shape);
    if (it == io_by_shape.end()) {
      result->correct = false;  // a shape never completed
      continue;
    }
    weighted_cost += shape_weights[shape] * it->second.Cost(PaperCostModel());
    weight_total += shape_weights[shape];
  }
  const double attempted = static_cast<double>(loop.samples.size());
  result->attempted = loop.samples.size();
  result->failed = loop.mismatches;
  if (loop.mismatches > 0) result->correct = false;
  const double done = std::max<double>(1.0, static_cast<double>(completed));
  result->Add("setup_s", setup_seconds, "s");
  result->Add("latency_ms_p50", Quantile(latencies, 0.50), "ms");
  result->Add("latency_ms_p95", Quantile(latencies, 0.95), "ms");
  result->Add("throughput_qps",
              loop.busy_seconds > 0.0 ? completed / loop.busy_seconds : 0.0,
              "queries/s");
  result->Add("cpu_ms_per_query", loop.cpu_seconds * 1e3 / done, "ms");
  result->Add("io_cost_per_query",
              weight_total > 0.0 ? weighted_cost / weight_total : 0.0,
              "io_cost");
  result->Add("peak_rss_mb", PeakRssMiB(), "MiB");
  result->Add("ok_frac",
              attempted > 0.0 ? static_cast<double>(completed) / attempted
                              : 0.0,
              "ratio");
}

StatusOr<std::unique_ptr<StoredRelation>> GenerateKeyed(
    tempo::Disk* disk, const tempo::WorkloadSpec& spec, const std::string& name,
    const std::string& pad_name) {
  TEMPO_ASSIGN_OR_RETURN(std::unique_ptr<StoredRelation> generated,
                         tempo::GenerateRelation(disk, spec, name));
  if (pad_name == "pad") return generated;
  TEMPO_ASSIGN_OR_RETURN(std::vector<tempo::Tuple> tuples,
                         generated->ReadAll());
  TEMPO_RETURN_IF_ERROR(disk->DeleteFile(generated->file_id()));
  auto renamed = std::make_unique<StoredRelation>(
      disk,
      tempo::Schema({{"key", tempo::ValueType::kInt64},
                     {pad_name, tempo::ValueType::kString}}),
      name);
  TEMPO_RETURN_IF_ERROR(renamed->AppendAll(tuples));
  TEMPO_RETURN_IF_ERROR(renamed->Flush());
  return renamed;
}

std::vector<size_t> ShuffledCycle(size_t shapes, uint64_t seed) {
  std::vector<size_t> cycle(shapes);
  for (size_t i = 0; i < shapes; ++i) cycle[i] = i;
  uint64_t state = seed;
  for (size_t i = shapes; i > 1; --i) {
    state = DeriveSeed(state, i);
    std::swap(cycle[i - 1], cycle[state % i]);
  }
  return cycle;
}

}  // namespace perfbench
