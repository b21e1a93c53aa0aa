#include "abft/agg/threads.hpp"

#include <utility>

#include "abft/util/check.hpp"

namespace abft::agg {

namespace detail {

bool& this_thread_in_pool_job() noexcept {
  static thread_local bool in_job = false;
  return in_job;
}

}  // namespace detail

namespace {

/// RAII guard for the thread-local nesting flag: chunks set it for their
/// duration (including when they unwind with an exception).
struct InJobScope {
  InJobScope() { detail::this_thread_in_pool_job() = true; }
  ~InJobScope() { detail::this_thread_in_pool_job() = false; }
};

}  // namespace

ThreadPool::ThreadPool(int width) : width_(std::max(1, width)) {
  threads_.reserve(static_cast<std::size_t>(width_ - 1));
  for (int slot = 0; slot < width_ - 1; ++slot) {
    threads_.emplace_back([this, slot] { worker_loop(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run_chunks(int begin, int end, int workers, InvokeFn invoke, void* ctx) {
  // Static chunking: ceil(range / workers), last chunk possibly short (or empty — workers is
  // clamped to the range, so chunk 0 is never empty).
  const int chunk = (end - begin + workers - 1) / workers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_begin_ = begin;
    job_end_ = end;
    job_workers_ = workers;
    job_chunk_ = chunk;
    job_invoke_ = invoke;
    job_ctx_ = ctx;
    pending_ = workers - 1;
    worker_error_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();
  std::exception_ptr caller_error;
  {
    InJobScope scope;
    try {
      invoke(ctx, begin, std::min(begin + chunk, end));
    } catch (...) {
      caller_error = std::current_exception();
    }
  }
  std::exception_ptr worker_error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    worker_error = std::exchange(worker_error_, nullptr);
  }
  if (caller_error) std::rethrow_exception(caller_error);
  if (worker_error) std::rethrow_exception(worker_error);
}

void ThreadPool::worker_loop(int slot) {
  std::uint64_t seen = 0;
  for (;;) {
    InvokeFn invoke = nullptr;
    void* ctx = nullptr;
    int lo = 0;
    int hi = 0;
    bool participates = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this, seen] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      // Worker `slot` owns chunk slot + 1 (the caller runs chunk 0).
      participates = slot + 1 < job_workers_;
      if (participates) {
        invoke = job_invoke_;
        ctx = job_ctx_;
        lo = job_begin_ + (slot + 1) * job_chunk_;
        hi = std::min(lo + job_chunk_, job_end_);
      }
    }
    if (!participates) continue;
    std::exception_ptr error;
    if (lo < hi) {
      InJobScope scope;
      try {
        invoke(ctx, lo, hi);
      } catch (...) {
        error = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error && worker_error_ == nullptr) worker_error_ = error;
      --pending_;
    }
    done_cv_.notify_one();
  }
}

}  // namespace abft::agg
