// Event-driven simulation of a W-worker cluster under a virtual clock.
//
// submit() runs the evaluation closure immediately (it is cheap — surrogate
// evaluators compute an analytic response) and schedules its *completion*
// at now + output.train_seconds on the earliest-free worker, reproducing
// the queueing dynamics of the paper's 128-worker Theta campaign without
// burning node-hours. get_finished() advances the clock to the next
// completion, so a 3-hour search runs in milliseconds while producing the
// same algorithmic trajectory an asynchronous manager would observe.
//
// Fault tolerance: each submission resolves its whole attempt chain
// eagerly. Per attempt, the FaultInjector may crash it (fails after half
// its duration), hang it (runs ~forever until a timeout or the straggler
// rule kills it), or slow it (duration × slow_factor). An attempt that
// exceeds its AttemptLifecycle::limit is killed at that deadline; the
// shared lifecycle (exec/attempt_lifecycle.hpp) then decides retry-or-fail
// and builds the job's record. What is the simulator's own is the gang
// claim, the launch overhead, the virtual-time spans and the event queue:
// every attempt occupies its gang for the time it consumed, so retries and
// kills show up in utilization and the trace export. Causality note: the
// straggler limit uses the running median of successful attempt durations
// in *submission* order (the eager-resolution equivalent of the median a
// live manager would see); docs/simulation.md discusses the approximation.
#pragma once

#include <iosfwd>
#include <queue>

#include "exec/attempt_lifecycle.hpp"
#include "exec/fault_injector.hpp"

namespace agebo::exec {

class SimulatedExecutor final : public Executor {
 public:
  /// `job_overhead_seconds` models the per-evaluation launch cost (Balsam
  /// scheduling + mpirun + model build on Theta) during which the worker is
  /// occupied but not training; it is what keeps measured utilization below
  /// 100% (the paper reports ~94%). `policy` and `faults` configure the
  /// fault-tolerance layer; the defaults disable both.
  explicit SimulatedExecutor(std::size_t n_workers,
                             double job_overhead_seconds = 0.0,
                             RetryPolicy policy = {},
                             FaultConfig faults = {});

  std::uint64_t submit(EvalFn fn, const JobSpec& spec) override;
  std::vector<Finished> get_finished(bool block = true) override;
  double now() const override { return clock_; }
  std::size_t num_workers() const override { return worker_free_at_.size(); }
  std::size_t num_in_flight() const override { return events_.size(); }
  Utilization utilization() const override;

  /// Export the schedule as CSV (job_id, worker, start, finish) for Gantt
  /// plots of the campaign.
  void write_trace_csv(std::ostream& os) const;

  /// Durable snapshot (DESIGN.md §14): virtual clock, job-id counter,
  /// per-worker free times, straggler medians, un-credited busy intervals,
  /// and every resolved-but-undelivered completion event. Fault draws are a
  /// stateless hash of (seed, job, attempt), so the restored id counter is
  /// all a resumed run needs to draw the identical fault sequence. The
  /// Gantt intervals (write_trace_csv) are not persisted — a resumed trace
  /// starts at the resume point.
  bool save_state(std::ostream& os) const override;
  bool load_state(std::istream& is) override;

 private:
  /// Completion order of resolved jobs; ties break on id for determinism.
  struct Later {
    bool operator()(const Finished& a, const Finished& b) const {
      if (a.finish_time != b.finish_time) return a.finish_time > b.finish_time;
      return a.id > b.id;
    }
  };

  /// Claim the `width` earliest-free workers into gang_scratch_. width==1
  /// (the paper's single-node campaigns, and every worker of a 10k-worker
  /// simulation) is a plain argmin scan — no index vector, no partial
  /// sort; wider gangs partial-sort a reused scratch vector. Both pick
  /// ties by lowest worker index.
  void claim_gang(std::size_t width);
  /// Credit `exec.busy_seconds` with worker-busy time that elapsed while
  /// the virtual clock moved (old_clock, clock_] — the obs-counter
  /// replacement for the old query-time interval clipping, so simulated
  /// and live runs report utilization through one code path.
  void advance_busy_accounting(double old_clock);

  double clock_ = 0.0;
  double job_overhead_ = 0.0;
  AttemptLifecycle lifecycle_;
  FaultInjector injector_;
  std::uint64_t next_id_ = 1;
  std::vector<double> worker_free_at_;
  std::priority_queue<Finished, std::vector<Finished>, Later> events_;
  /// One occupied worker-interval of a scheduled job; utilization clips
  /// each interval to [0, clock] so jobs scheduled past the horizon don't
  /// overcount, and the trace export reconstructs the Gantt chart.
  struct BusyInterval {
    std::uint64_t job_id;
    std::size_t worker;
    double start;
    double finish;
  };
  std::vector<BusyInterval> busy_intervals_;
  /// Worker-intervals not yet fully credited to `exec.busy_seconds`
  /// (consumed by advance_busy_accounting as the clock passes them).
  struct PendingBusy {
    double start;
    double finish;
  };
  std::vector<PendingBusy> pending_busy_;
  /// Workers claimed by the current attempt (claim_gang scratch, reused
  /// across submits so the hot path does not allocate).
  std::vector<std::size_t> gang_scratch_;
  std::vector<std::size_t> gang_order_scratch_;
};

}  // namespace agebo::exec
