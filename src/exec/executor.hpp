// Manager-worker execution substrate (the Balsam role in Fig 2).
//
// The search process submits architecture evaluations through a
// non-blocking `submit` and collects completed ones through `get_finished`
// — exactly the submit_evaluation / get_finished_evaluations interface of
// Algorithm 1. Two implementations exist:
//
//  - LiveExecutor: a thread pool of W workers that really runs the
//    evaluation closures; `now()` is wall-clock time.
//  - SimulatedExecutor: an event-driven simulator of a W-worker cluster
//    driven by a virtual clock; each evaluation's *reported* training time
//    becomes its simulated duration. This reproduces the paper's
//    129-node / 3-hour Theta campaigns in milliseconds (DESIGN.md §2).
//
// Search code is written once against Executor and runs on either.
//
// Fault tolerance (DESIGN.md "Fault model and JobSpec API"): at the
// paper's scale (129 KNL nodes for 3 hours) worker crashes, hangs and
// stragglers are routine, so jobs are submitted with a JobSpec carrying a
// per-job timeout and a bounded retry budget, and executors enforce a
// straggler rule (kill-and-resubmit past k× the running median train
// time) from their RetryPolicy. A job is reported through get_finished
// exactly once: either the first successful attempt, or a failed=true
// record once every attempt crashed or was killed. That policy is one
// state machine, AttemptLifecycle (exec/attempt_lifecycle.hpp), owned by
// each executor; the executors themselves keep only dispatch and the
// clock.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

namespace agebo::exec {

/// What one architecture evaluation produces.
struct EvalOutput {
  /// Validation accuracy (the search objective).
  double objective = 0.0;
  /// Training wall time in seconds. The simulator uses this as the job's
  /// duration; the live executor overwrites it with measured time if the
  /// evaluator left it at zero.
  double train_seconds = 0.0;
  /// True when the evaluation failed (counted as objective 0).
  bool failed = false;
  /// True when the failure was a timeout or straggler kill rather than a
  /// crash (implies failed).
  bool timed_out = false;
  /// True when the evaluation survived one or more replica losses through
  /// elastic reconfiguration (DESIGN.md §16). The result is still a
  /// success — objective/train_seconds are real — but was produced at a
  /// smaller world size than requested.
  bool degraded = false;
  /// Data-parallel world size the evaluation finished with. 0 = unknown
  /// (evaluator predates elastic training or n does not apply); equals the
  /// requested n when no replica was lost.
  std::size_t final_world = 0;
};

using EvalFn = std::function<EvalOutput()>;

/// Per-job submission policy. `width` is the gang size (workers occupied
/// simultaneously); `timeout_seconds` kills an attempt that runs longer
/// (0 = no timeout); `max_retries` bounds how many times a crashed or
/// killed attempt is resubmitted before the job is reported failed; `tag`
/// is an opaque label echoed back in Finished for tracing. `tenant` is the
/// accounting principal of a multiplexed submission (DESIGN.md §14): both
/// executors credit each attempt's consumed worker-seconds to the
/// `exec.tenant.<tenant>.busy_seconds` obs dcounter, which is what the
/// campaign service's per-tenant utilization report reads. Empty = the
/// single-tenant default (no per-tenant counter).
struct JobSpec {
  std::size_t width = 1;
  double timeout_seconds = 0.0;
  std::size_t max_retries = 0;
  std::string tag;
  std::string tenant;
};

struct Finished {
  std::uint64_t id = 0;
  EvalOutput output;
  /// Executor time (seconds since start) at which the job completed.
  double finish_time = 0.0;
  /// Attempts consumed (1 = succeeded first try; >1 means retries ran).
  std::size_t attempts = 1;
  /// Echo of JobSpec::tag.
  std::string tag;
};

/// Executor-wide fault-handling policy (per-job knobs live in JobSpec).
/// Retries of a failed attempt are delayed by an exponential backoff:
/// backoff_base * 2^(attempt-1), capped at backoff_max. The straggler rule
/// kills an attempt once it runs longer than straggler_factor × the
/// running median of successful train times — but only after
/// straggler_min_samples completions, so the first wave (with no median to
/// compare against) is never killed. straggler_factor = 0 disables it.
struct RetryPolicy {
  double backoff_base_seconds = 1.0;
  double backoff_max_seconds = 60.0;
  double straggler_factor = 0.0;
  std::size_t straggler_min_samples = 5;
};

/// Backoff delay before resubmitting attempt `attempt`+1 after failed
/// attempt `attempt` (1-based).
inline double backoff_delay(const RetryPolicy& policy, std::size_t attempt) {
  double delay = policy.backoff_base_seconds;
  for (std::size_t i = 1; i < attempt; ++i) delay *= 2.0;
  return std::min(delay, policy.backoff_max_seconds);
}

/// Kill deadline (seconds after the attempt starts) for one attempt of a
/// job, or +inf: the job's own timeout, tightened by the straggler rule
/// once `sorted_durations` (successful attempt durations, ascending) holds
/// straggler_min_samples entries. AttemptLifecycle::limit applies it for
/// both executors.
inline double attempt_limit(const RetryPolicy& policy, const JobSpec& spec,
                            const std::vector<double>& sorted_durations) {
  double limit = std::numeric_limits<double>::infinity();
  if (spec.timeout_seconds > 0.0) limit = spec.timeout_seconds;
  const std::size_t n = sorted_durations.size();
  if (policy.straggler_factor > 0.0 &&
      n >= std::max<std::size_t>(1, policy.straggler_min_samples)) {
    const double median =
        0.5 * (sorted_durations[(n - 1) / 2] + sorted_durations[n / 2]);
    limit = std::min(limit, policy.straggler_factor * median);
  }
  return limit;
}

struct Utilization {
  double busy_worker_seconds = 0.0;
  double elapsed_seconds = 0.0;
  std::size_t workers = 0;
  /// busy / (elapsed * workers); the paper reports ~94% (Sec IV-C).
  double fraction() const {
    const double denom = elapsed_seconds * static_cast<double>(workers);
    return denom > 0.0 ? busy_worker_seconds / denom : 0.0;
  }
};

class Executor {
 public:
  virtual ~Executor() = default;

  /// Non-blocking job submission under the given policy; returns the job
  /// id. Gang scheduling (spec.width > 1) occupies `width` workers at once,
  /// for evaluations whose data-parallel training spans multiple nodes —
  /// the paper's multinode future-work item. SimulatedExecutor implements
  /// true gang scheduling; LiveExecutor treats width as 1.
  virtual std::uint64_t submit(EvalFn fn, const JobSpec& spec) = 0;

  /// Completed jobs since the last call. When `block` is true and jobs are
  /// in flight, waits until at least one completes (in the simulator this
  /// advances the virtual clock). Returns empty when nothing is in flight.
  /// Timeout and straggler enforcement happen inside this call (the
  /// manager loop of Algorithm 1 always sits here), so a hung evaluation
  /// with a timeout can no longer stall the search forever.
  virtual std::vector<Finished> get_finished(bool block = true) = 0;

  /// Seconds since executor start: wall time (live) or virtual time (sim).
  virtual double now() const = 0;

  virtual std::size_t num_workers() const = 0;
  virtual std::size_t num_in_flight() const = 0;
  virtual Utilization utilization() const = 0;

  /// Durable snapshot of the executor's queued/in-flight state for the
  /// campaign service's checkpoint/resume path (DESIGN.md §14). Returns
  /// false when the implementation cannot snapshot — LiveExecutor's
  /// in-flight work lives on real threads and is lost with the process, so
  /// resume falls back to resubmitting the campaigns' outstanding tickets.
  /// SimulatedExecutor serializes its virtual clock, worker free times, and
  /// resolved completion events, making a resumed simulated campaign
  /// bit-identical to an uninterrupted one.
  virtual bool save_state(std::ostream& os) const {
    (void)os;
    return false;
  }
  /// Restore a snapshot written by the same implementation with the same
  /// worker count; returns false when snapshotting is unsupported. Throws
  /// std::runtime_error on malformed or mismatched input.
  virtual bool load_state(std::istream& is) {
    (void)is;
    return false;
  }
};

/// Metric name credited with a tenant's consumed worker-seconds.
inline std::string tenant_busy_metric(const std::string& tenant) {
  return "exec.tenant." + tenant + ".busy_seconds";
}

}  // namespace agebo::exec
