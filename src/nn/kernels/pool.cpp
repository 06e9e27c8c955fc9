#include "nn/kernels/pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace agebo::nn::kernels {

namespace {

constexpr std::size_t kMaxPoolThreads = 16;

// Resolved once: hardware_concurrency() costs microseconds per call, and
// max_threads() sits on every GEMM dispatch.
std::size_t hardware_threads() {
  static const std::size_t n = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, kMaxPoolThreads);
  }();
  return n;
}

std::atomic<std::size_t> g_default_max{0};  // 0 = auto
thread_local std::size_t t_local_limit = 0;  // 0 = inherit default

// Lazily-built persistent pool. Collectives are serialized by dispatch_mu_:
// if two trainer threads issue big GEMMs at once, the second waits for the
// first collective instead of doubling the live thread count.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool(hardware_threads() - 1);
    return pool;
  }

  void run(std::size_t nchunks, std::size_t nthreads,
           const std::function<void(std::size_t)>& fn) {
    std::lock_guard<std::mutex> dispatch(dispatch_mu_);
    const std::size_t helpers =
        std::min(nthreads - 1, std::min(workers_.size(), nchunks - 1));
    if (helpers == 0) {
      for (std::size_t c = 0; c < nchunks; ++c) fn(c);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &fn;
      nchunks_ = nchunks;
      next_chunk_.store(0, std::memory_order_relaxed);
      tickets_ = helpers;  // how many workers may join this collective
      active_ = helpers;   // how many joins must complete before we return
      ++generation_;
    }
    cv_start_.notify_all();

    // Caller participates: chunks are claimed atomically, so the split
    // adapts to whoever is free (chunk content stays schedule-independent).
    work();

    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return active_ == 0; });
    job_ = nullptr;
  }

 private:
  explicit Pool(std::size_t nworkers) {
    // Workers hand their trace ring and metric shard back to the obs
    // stores when they exit in ~Pool, so build both stores first: statics
    // are destroyed in reverse order of construction.
    obs::Registry::global();
    obs::trace_now_seconds();
    workers_.reserve(nworkers);
    for (std::size_t i = 0; i < nworkers; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_start_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void work() {
    while (true) {
      const std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
      if (c >= nchunks_) break;
      (*job_)(c);
    }
  }

  void worker_loop(std::size_t index) {
    obs::set_thread_lane("kernels.pool-" + std::to_string(index));
    std::uint64_t seen = 0;
    while (true) {
      bool participate = false;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        if (tickets_ > 0) {
          --tickets_;
          participate = true;
        }
      }
      // Undrafted workers (budget < pool size) go back to sleep; the
      // caller only waits on the `active_` joins it handed out.
      if (!participate) continue;
      work();
      bool last;
      {
        std::lock_guard<std::mutex> lock(mu_);
        last = (--active_ == 0);
      }
      if (last) cv_done_.notify_one();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex dispatch_mu_;  // serializes whole collectives across callers

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t nchunks_ = 0;
  std::atomic<std::size_t> next_chunk_{0};
  std::size_t tickets_ = 0;
  std::size_t active_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace

void set_max_threads(std::size_t n) {
  g_default_max.store(n, std::memory_order_relaxed);
}

std::size_t max_threads() {
  std::size_t n = t_local_limit;
  if (n == 0) n = g_default_max.load(std::memory_order_relaxed);
  if (n == 0) n = hardware_threads();
  return std::max<std::size_t>(1, std::min(n, kMaxPoolThreads));
}

ScopedThreadLimit::ScopedThreadLimit(std::size_t n) : prev_(t_local_limit) {
  t_local_limit = n;
}

ScopedThreadLimit::~ScopedThreadLimit() { t_local_limit = prev_; }

void parallel_for(std::size_t nchunks,
                  const std::function<void(std::size_t)>& fn) {
  if (nchunks == 0) return;
  const std::size_t nthreads = std::min(max_threads(), nchunks);
  if (nchunks == 1 || nthreads <= 1) {
    for (std::size_t c = 0; c < nchunks; ++c) fn(c);
    return;
  }
  Pool::instance().run(nchunks, nthreads, fn);
}

}  // namespace agebo::nn::kernels
