// One slave's ordered lane of real-execution kernel calls.
//
// A task that declares GRTask::concurrent_process() has its process() calls
// queued here instead of run inline on the simulation thread. The lane runs
// them on the platform's kernel pool one at a time, in the order they were
// submitted, so every robj sees exactly the sequence of operations an inline
// run gives it. Kernel work is host-only and never feeds simulated time, so
// the simulation runs on while the lane catches up.
//
// The simulation thread fences the lane (waits for it to go idle) before it
// reads or replaces the slave's robj. A fence that finds the lane's calls
// not yet started by the pool runs them itself rather than wait. A call
// that throws is caught; the lane skips the calls queued behind it and the
// fence rethrows the exception on the simulation thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <mutex>

#include "api/generalized_reduction.hpp"
#include "common/thread_pool.hpp"

namespace cloudburst::middleware {

class KernelLane {
 public:
  /// One queued call: everything it touches is named here, so a running
  /// lane reads no field its slave may change meanwhile.
  struct Call {
    const api::GRTask* task;
    const std::byte* data;
    std::size_t units;
    api::ReductionObject* robj;
  };

  KernelLane() = default;
  KernelLane(const KernelLane&) = delete;
  KernelLane& operator=(const KernelLane&) = delete;
  /// Waits for the queued calls; an exception no fence collected is dropped.
  ~KernelLane();

  /// Queue `call` behind every call submitted before it, starting the lane
  /// on `pool` when it is idle.
  void submit(ThreadPool& pool, const Call& call);

  /// Block until every submitted call has run, then rethrow (once) the
  /// exception one of them threw, if any.
  void fence();

 private:
  /// Pool task: run the queued calls unless a fence already took them.
  void drain();
  /// Run queued calls on this thread until none is left; `lock` is held on
  /// entry and exit and released around each call.
  void run_calls(std::unique_lock<std::mutex>& lock);

  std::mutex mutex_;
  std::condition_variable idle_;
  std::deque<Call> calls_;
  bool running_ = false;  ///< a thread is running the queued calls
  /// Pool tasks that still point at this lane. With running_ false, a
  /// non-zero count means a submitted task has not started yet.
  unsigned tasks_ = 0;
  std::exception_ptr error_;  ///< first exception thrown, until a fence takes it
};

}  // namespace cloudburst::middleware
