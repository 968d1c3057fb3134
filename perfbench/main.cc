// tempo benchmark: the command-line entry point.
//
//   perfbench --workload <paper_join|service_mix|sequenced_pipeline>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// Sets the workload up several times (setup_s is the median), computes the
// oracle digests in forked children, warms up, then either measures the
// end-to-end metrics over a closed loop (--trace 0) or runs the traced
// per-layer breakdown (--trace 1, spans written to --spans). The last line
// of standard output is one JSON object with the run's metrics. Exits
// non-zero when any output differs from its oracle.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-up takes milliseconds, so its median over many repeats is what is
// steady enough to compare between runs.
constexpr int kSetupRepeats = 31;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      args->seed = n;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n > 0) {
      args->seconds = static_cast<double>(n);
    } else if (flag == "--trace" && ParseUint(value, &n) && n <= 1) {
      args->trace = n == 1;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

Status Run(const Args& args, RunResult* result) {
  // Set up kSetupRepeats times, keeping the last; the oracle digests are
  // computed between the last Load and Start (single-threaded process).
  std::unique_ptr<Workload> workload;
  std::vector<Digest> expected;
  std::vector<double> setup_seconds;
  for (int i = 1; i <= kSetupRepeats; ++i) {
    workload.reset();  // joins the previous workload's threads
    workload = MakeWorkload(args.workload);
    if (workload == nullptr) {
      return Status::InvalidArgument("unknown workload " + args.workload);
    }
    const double t0 = WallSeconds();
    TEMPO_RETURN_IF_ERROR(workload->Load(args.seed));
    double seconds = WallSeconds() - t0;
    if (i == kSetupRepeats) {
      TEMPO_ASSIGN_OR_RETURN(
          expected,
          ComputeInChildren(workload->num_shapes(), [&](size_t shape) {
            return workload->ComputeExpected(shape);
          }));
    }
    const double t1 = WallSeconds();
    TEMPO_RETURN_IF_ERROR(workload->Start());
    setup_seconds.push_back(seconds + (WallSeconds() - t1));
  }
  if (expected.size() != workload->num_shapes()) {
    return Status::Internal("oracle returned the wrong number of digests");
  }

  // Warm-up: one checked request of every shape, untimed.
  for (size_t shape = 0; shape < workload->num_shapes(); ++shape) {
    std::string error;
    double unused = 0.0;
    QuerySample s = RunChecked(
        0, shape,
        [&](uint32_t c, size_t sh) { return workload->Execute(c, sh); },
        expected, &error, &unused);
    if (!s.ok) return Status::Internal("warm-up failed: " + error);
  }

  const double deadline = WallSeconds() + args.seconds;
  if (args.trace) {
    SpanRecorder spans;
    LayerMetrics layers;
    TEMPO_RETURN_IF_ERROR(
        workload->Traced(expected, deadline, &spans, &layers, result));
    layers.EmitInto(result);
    if (!args.spans_path.empty()) {
      TEMPO_RETURN_IF_ERROR(spans.WriteChromeTrace(args.spans_path));
    }
    return Status::OK();
  }

  std::vector<std::vector<size_t>> cycles;
  for (uint32_t c = 0; c < workload->clients(); ++c) {
    cycles.push_back(
        ShuffledCycle(workload->num_shapes(), DeriveSeed(args.seed, 100 + c)));
  }
  LoopStats loop = RunClosedLoop(
      workload->clients(), cycles,
      [&](uint32_t c, size_t sh) { return workload->Execute(c, sh); },
      expected, deadline);
  for (const std::string& e : loop.errors) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(), e.c_str());
  }
  AddEndToEndMetrics(loop, Median(setup_seconds),
                     std::vector<double>(workload->num_shapes(), 1.0), result);
  return Status::OK();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n",
                 argv[0]);
    return 2;
  }
  perfbench::RunResult result;
  tempo::Status st = perfbench::Run(args, &result);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", result.ToJson().c_str());
  return result.correct && result.failed == 0 ? 0 : 1;
}
