#include "middleware/kernel_lane.hpp"

#include <utility>

namespace cloudburst::middleware {

KernelLane::~KernelLane() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return !running_ && tasks_ == 0; });
}

void KernelLane::submit(ThreadPool& pool, const Call& call) {
  bool start = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    calls_.push_back(call);
    // A running lane, or a pool task that has not started yet, will find
    // this call too.
    start = !running_ && tasks_ == 0;
    if (start) ++tasks_;
  }
  if (start) pool.submit([this] { drain(); });
}

void KernelLane::fence() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!running_) {
    // No worker has the calls yet: run them here instead of waiting for the
    // pool to reach this lane.
    running_ = true;
    run_calls(lock);
    running_ = false;
  } else {
    idle_.wait(lock, [this] { return !running_; });
  }
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void KernelLane::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!running_) {
    running_ = true;
    run_calls(lock);
    running_ = false;
  }
  --tasks_;
  idle_.notify_all();
}

void KernelLane::run_calls(std::unique_lock<std::mutex>& lock) {
  while (!calls_.empty()) {
    const Call call = calls_.front();
    calls_.pop_front();
    // After a throw the robj is part-updated: skip what was queued behind.
    if (error_) continue;
    lock.unlock();
    std::exception_ptr thrown;
    try {
      call.task->process(call.data, call.units, *call.robj);
    } catch (...) {
      thrown = std::current_exception();
    }
    lock.lock();
    if (thrown) error_ = std::move(thrown);
  }
}

}  // namespace cloudburst::middleware
