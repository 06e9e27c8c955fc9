// The attempt lifecycle both executors own (DESIGN.md §8): the RetryPolicy,
// the sorted success-duration log behind the straggler limit, the one
// retry-or-fail decision with its backoff, the job's single Finished
// record, and the exec.* accounting (job/attempt/retry/kill counters,
// exec.busy_seconds, per-tenant busy-second handles). It never reads a
// clock: every time is an argument, so the executors keep only dispatch
// and the clock. Not thread-safe: LiveExecutor calls admit/limit/end under
// its mutex; begin and add_busy only touch counter handles and may be
// called from any thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/executor.hpp"
#include "obs/registry.hpp"

namespace agebo::exec {

/// How one attempt of a job ended.
enum class Ending {
  kSucceeded,  ///< the evaluation produced a result
  kFailed,     ///< crashed: injected crash, exception or a failed output
  kKilled,     ///< reclaimed at its deadline (timeout or straggler rule)
};

/// The lifecycle's decision for an ended attempt: resubmit the next
/// attempt after `backoff` seconds, or report `finished` (the job's one
/// record) through get_finished.
struct Verdict {
  bool retry = false;
  double backoff = 0.0;
  Finished finished;
};

class AttemptLifecycle {
 public:
  explicit AttemptLifecycle(RetryPolicy policy);

  /// Count a submitted job and return its tenant's
  /// `exec.tenant.<tenant>.busy_seconds` handle (a null handle, whose add
  /// is a no-op, for the single-tenant default). Handles are cached, so
  /// the registry is consulted once per tenant.
  obs::DCounter admit(const JobSpec& spec);

  /// Count one started attempt.
  void begin() const { m_attempts_.inc(); }

  /// Kill deadline (seconds after its start) of an attempt of `spec`,
  /// given the successes recorded so far.
  double limit(const JobSpec& spec) const {
    return attempt_limit(policy_, spec, durations_);
  }

  /// Attempt `attempt` of `job` ended `how` at time `now` after running
  /// `consumed` seconds; `out` is what it produced (ignored for kKilled).
  /// A success records its duration and is the job's record. A failure
  /// with retry budget left returns backoff_delay; otherwise the record is
  /// `out` with objective 0, or a fresh timed_out record for a kill.
  Verdict end(std::uint64_t job, std::size_t attempt, const JobSpec& spec,
              Ending how, EvalOutput out, double consumed, double now);

  /// Credit worker-busy time to `exec.busy_seconds`.
  void add_busy(double seconds) const { m_busy_.add(seconds); }
  /// `exec.busy_seconds` credited since construction (the utilization
  /// numerator of both executors).
  double busy_seconds() const { return m_busy_.total() - busy_baseline_; }

  /// Successful attempt durations, ascending; snapshots persist them.
  const std::vector<double>& durations() const { return durations_; }
  void restore_durations(std::vector<double> sorted) {
    durations_ = std::move(sorted);
  }

 private:
  RetryPolicy policy_;
  std::vector<double> durations_;
  std::map<std::string, obs::DCounter> tenant_busy_;
  // Process-global, monotonic counters shared by every executor.
  obs::Counter m_submitted_;
  obs::Counter m_attempts_;
  obs::Counter m_retries_;
  obs::Counter m_kills_;
  obs::Counter m_failed_;
  obs::Counter m_succeeded_;
  obs::DCounter m_busy_;
  double busy_baseline_ = 0.0;
};

}  // namespace agebo::exec
