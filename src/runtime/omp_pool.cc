#include "src/runtime/omp_pool.h"

#include "src/base/cpu_info.h"

namespace neocpu {

OmpStylePool::OmpStylePool(int num_workers) {
  num_workers_ = num_workers > 0 ? num_workers : HostCpuInfo().physical_cores;
  threads_.reserve(static_cast<std::size_t>(num_workers_ - 1));
  for (int i = 1; i < num_workers_; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

OmpStylePool::~OmpStylePool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

void OmpStylePool::WorkerLoop() {
  std::uint64_t seen_epoch = 0;
  while (true) {
    const std::function<void(int, int)>* fn = nullptr;
    int task = -1;
    int num_tasks = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (region_epoch_ != seen_epoch && next_task_ < region_num_tasks_);
      });
      if (shutdown_) {
        return;
      }
      fn = fn_;
      num_tasks = region_num_tasks_;
      task = next_task_++;
      if (next_task_ >= region_num_tasks_) {
        seen_epoch = region_epoch_;
      }
    }
    (*fn)(task, num_tasks);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--outstanding_ == 0) {
        done_cv_.notify_one();
      }
    }
  }
}

void OmpStylePool::ParallelRun(int num_tasks, const std::function<void(int, int)>& fn) {
  if (num_tasks <= 0) {
    return;
  }
  if (num_tasks == 1 || num_workers_ == 1) {
    for (int i = 0; i < num_tasks; ++i) {
      fn(i, num_tasks);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    region_num_tasks_ = num_tasks;
    next_task_ = 1;  // task 0 runs on the master thread, as OpenMP does.
    outstanding_ = num_tasks - 1;
    ++region_epoch_;
  }
  work_cv_.notify_all();
  fn(0, num_tasks);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return outstanding_ == 0; });
    fn_ = nullptr;
  }
}

}  // namespace neocpu
