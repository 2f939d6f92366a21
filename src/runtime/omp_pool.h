// OpenMP-style fork-join pool used as the multi-threading baseline (Figure 4).
//
// Models the structure of a classic OpenMP runtime with a passive wait policy: a single
// shared mutex + condition variable pair through which every parallel region wakes the
// team and through which every worker reports completion. The per-region wake/park round
// trip is exactly the "overhead of OpenMP to launch and suppress threads before and
// after a region" the paper measures against its custom pool.
#ifndef NEOCPU_SRC_RUNTIME_OMP_POOL_H_
#define NEOCPU_SRC_RUNTIME_OMP_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/runtime/thread_engine.h"

namespace neocpu {

class OmpStylePool final : public ThreadEngine {
 public:
  explicit OmpStylePool(int num_workers = 0);
  ~OmpStylePool() override;

  OmpStylePool(const OmpStylePool&) = delete;
  OmpStylePool& operator=(const OmpStylePool&) = delete;

  void ParallelRun(int num_tasks, const std::function<void(int, int)>& fn) override;
  int NumWorkers() const override { return num_workers_; }
  const char* Name() const override { return "omp-style"; }

 private:
  void WorkerLoop();  // workers claim tasks from the shared region, not by index

  int num_workers_ = 1;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int, int)>* fn_ = nullptr;
  int region_num_tasks_ = 0;
  int next_task_ = 0;
  int outstanding_ = 0;
  std::uint64_t region_epoch_ = 0;
  bool shutdown_ = false;
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_RUNTIME_OMP_POOL_H_
