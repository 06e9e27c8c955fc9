// Executor backed by a real thread pool; evaluations actually run. Used by
// examples and integration tests to drive the full training path.
//
// What is its own is dispatch and the clock: pool threads run attempts,
// cancel tokens abandon them, and get_finished waits on the wall clock for
// the earliest in-flight deadline (the manager loop of Algorithm 1 always
// sits there). Everything else — deadlines, retry-or-fail, backoff, the
// job's record and the exec.* accounting — is the shared AttemptLifecycle
// (exec/attempt_lifecycle.hpp). Threads cannot be killed, so a timed-out
// attempt is *abandoned*: its cancel token is set, its eventual result is
// dropped, and the lifecycle resubmits or fails the job. Injected hangs and
// slowdowns poll the cancel token, so the worker slot comes back promptly;
// a real runaway closure keeps its pool thread busy until it returns —
// exactly the straggler behaviour the policy exists to bound.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "exec/attempt_lifecycle.hpp"
#include "exec/fault_injector.hpp"
#include "exec/thread_pool.hpp"
#include "obs/registry.hpp"

namespace agebo::exec {

class LiveExecutor final : public Executor {
 public:
  explicit LiveExecutor(std::size_t n_workers, RetryPolicy policy = {},
                        FaultConfig faults = {});
  ~LiveExecutor() override;

  /// Live workers are pool threads, so gang width is treated as 1 (one
  /// thread per evaluation regardless of spec.width).
  std::uint64_t submit(EvalFn fn, const JobSpec& spec) override;
  std::vector<Finished> get_finished(bool block = true) override;
  double now() const override;
  std::size_t num_workers() const override { return pool_.size(); }
  std::size_t num_in_flight() const override;
  Utilization utilization() const override;

 private:
  struct Job {
    std::shared_ptr<const EvalFn> fn;
    JobSpec spec;
    /// Per-tenant busy-seconds dcounter (null handle when spec.tenant is
    /// empty — add() on a null handle is a no-op). Registered at submit
    /// time so attempt closures never take the registry lock.
    obs::DCounter tenant_busy;
    std::size_t attempt = 1;
    bool started = false;
    double start_time = 0.0;
    /// Token of the *current* attempt; set true to abandon it. A fresh
    /// token per attempt makes results from killed attempts identifiable.
    std::shared_ptr<std::atomic<bool>> cancel;
  };

  /// Enqueue the current attempt of `id` after `delay_seconds` of backoff.
  /// Caller holds mu_.
  void start_attempt_locked(std::uint64_t id, double delay_seconds);
  /// Hand the current attempt of `id`, ended at time `t`, to the
  /// lifecycle: resubmit the job or report it. Caller holds mu_.
  void end_attempt_locked(std::uint64_t id, Ending how, EvalOutput out,
                          double consumed, double t);
  /// Kill attempts past their deadline. Caller holds mu_.
  void reap_expired_locked();

  std::chrono::steady_clock::time_point start_;
  FaultInjector injector_;
  /// Shared with attempt closures so injected hangs exit at destruction.
  std::shared_ptr<std::atomic<bool>> shutdown_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Finished> finished_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, Job> jobs_;
  AttemptLifecycle lifecycle_;  ///< guarded by mu_ (begin/add_busy aside)
  obs::Gauge m_in_flight_;

  /// Last member on purpose: its destructor joins the workers while every
  /// other field (mutex, maps, tokens) is still alive. (Declared first, it
  /// would be destroyed last and in-flight closures could touch destroyed
  /// members.)
  ThreadPool pool_;
};

}  // namespace agebo::exec
