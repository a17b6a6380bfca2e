#include "runtime/sim_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

namespace logsim::runtime {

namespace {

// Countdown latch (C++20 std::latch is single-use too, but this one keeps
// the dependency surface to <mutex>, matching the rest of the runtime
// layer).  One latch per parallel_for call, joined by the caller.
class Latch {
 public:
  explicit Latch(std::size_t count) : remaining_(count) {}

  void count_down() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) done_.notify_all();
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [&] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable done_;
  std::size_t remaining_;
};

std::size_t env_threads() {
  if (const char* v = std::getenv("LOGSIM_SIM_THREADS")) {
    const long parsed = std::strtol(v, nullptr, 10);
    return parsed > 0 ? static_cast<std::size_t>(parsed) : 0;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// Overridable configuration, latched into the shared executor on first
// sim_parallel_for() use.
std::atomic<std::size_t>& thread_count_override() {
  static std::atomic<std::size_t> count{env_threads()};
  return count;
}

}  // namespace

core::ParallelFor pool_parallel(ThreadPool& pool) {
  return [&pool](std::size_t n, const std::function<void(std::size_t)>& body) {
    if (n == 0) return;
    if (n == 1) {  // nothing to overlap; skip the queue round-trip
      body(0);
      return;
    }
    // One task per index, joined by a latch scoped to this call: a shared
    // pool may be running unrelated work, so wait_idle() is not an option.
    // count_down() runs even when the body throws (the pool also swallows
    // and counts the exception), so the caller can never wedge.
    Latch latch{n};
    for (std::size_t i = 0; i < n; ++i) {
      pool.submit([&latch, &body, i](std::chrono::steady_clock::duration) {
        struct Arm {
          Latch& l;
          ~Arm() { l.count_down(); }
        } arm{latch};
        body(i);
      });
    }
    latch.wait();
  };
}

std::size_t sim_thread_count() {
  return thread_count_override().load(std::memory_order_relaxed);
}

void set_sim_thread_count(std::size_t threads) {
  thread_count_override().store(threads, std::memory_order_relaxed);
}

const core::ParallelFor& sim_parallel_for() {
  // The pool and adapter are built once, on first use, from the settings
  // in effect at that moment; both live for the process (workers park on
  // the queue's condvar when idle, so an unused pool costs nothing).
  static const core::ParallelFor executor = [] {
    const std::size_t threads = sim_thread_count();
    if (threads <= 1) return core::ParallelFor{};
    static ThreadPool pool{threads};
    return pool_parallel(pool);
  }();
  return executor;
}

}  // namespace logsim::runtime
