#include "workloads.h"

namespace perfbench {

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint32_t threads) {
  if (threads == 0) threads = kWorkloadThreads;
  if (name == "paper_join") return MakePaperJoin(threads);
  if (name == "service_mix") return MakeServiceMix(threads);
  if (name == "sequenced_pipeline") return MakeSequencedPipeline(threads);
  return nullptr;
}

}  // namespace perfbench
