// Fault-tolerance layer tests (ctest label: faults): seeded fault
// injection, per-job timeouts, bounded retry with exponential backoff,
// straggler kill-and-resubmit, and graceful degradation of the search —
// exercised against BOTH the simulator and the live thread-pool executor.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/history_io.hpp"
#include "core/search.hpp"
#include "core/variants.hpp"
#include "eval/surrogate.hpp"
#include "exec/fault_injector.hpp"
#include "exec/live_executor.hpp"
#include "exec/sim_executor.hpp"
#include "nas/search_space.hpp"
#include "obs/registry.hpp"

namespace agebo {
namespace {

using exec::EvalOutput;
using exec::FaultConfig;
using exec::FaultInjector;
using exec::FaultKind;
using exec::JobSpec;
using exec::RetryPolicy;

// Fast-backoff policy so live tests don't wait on cluster-scale delays.
RetryPolicy quick_backoff() {
  RetryPolicy policy;
  policy.backoff_base_seconds = 0.005;
  policy.backoff_max_seconds = 0.02;
  return policy;
}

/// Smallest seed whose injector draws `first` for (job 1, attempt 1) and
/// kNone for (job 1, attempt 2) — lets tests script "fails once, then
/// succeeds" schedules against the stateless hash.
std::uint64_t seed_for_retry_success(const FaultConfig& base, FaultKind first) {
  for (std::uint64_t seed = 1; seed < 10000; ++seed) {
    FaultConfig cfg = base;
    cfg.seed = seed;
    const FaultInjector injector(cfg);
    if (injector.draw(1, 1) == first && injector.draw(1, 2) == FaultKind::kNone) {
      return seed;
    }
  }
  ADD_FAILURE() << "no seed found";
  return 0;
}

// --------------------------------------------------------------------------
// FaultInjector: deterministic, seed-dependent, frequency-correct.

TEST(FaultInjector, SameSeedReplaysIdenticalSchedule) {
  FaultConfig cfg;
  cfg.crash_prob = 0.2;
  cfg.hang_prob = 0.1;
  cfg.slow_prob = 0.15;
  cfg.seed = 42;
  const FaultInjector a(cfg);
  const FaultInjector b(cfg);
  for (std::uint64_t job = 1; job <= 50; ++job) {
    for (std::size_t attempt = 1; attempt <= 4; ++attempt) {
      EXPECT_EQ(a.draw(job, attempt), b.draw(job, attempt));
    }
  }
  // Order independence: re-querying in reverse replays the same schedule.
  for (std::uint64_t job = 50; job >= 1; --job) {
    EXPECT_EQ(a.draw(job, 1), b.draw(job, 1));
  }
}

TEST(FaultInjector, DifferentSeedsDifferentSchedules) {
  FaultConfig cfg;
  cfg.crash_prob = 0.5;
  cfg.seed = 1;
  const FaultInjector a(cfg);
  cfg.seed = 2;
  const FaultInjector b(cfg);
  std::size_t differing = 0;
  for (std::uint64_t job = 1; job <= 200; ++job) {
    if (a.draw(job, 1) != b.draw(job, 1)) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultInjector, FrequenciesMatchProbabilities) {
  FaultConfig cfg;
  cfg.crash_prob = 0.2;
  cfg.hang_prob = 0.1;
  cfg.slow_prob = 0.1;
  cfg.seed = 7;
  const FaultInjector injector(cfg);
  const std::size_t n = 20000;
  std::size_t crash = 0, hang = 0, slow = 0;
  for (std::uint64_t job = 1; job <= n; ++job) {
    switch (injector.draw(job, 1)) {
      case FaultKind::kCrash: ++crash; break;
      case FaultKind::kHang: ++hang; break;
      case FaultKind::kSlow: ++slow; break;
      case FaultKind::kNone: break;
    }
  }
  EXPECT_NEAR(static_cast<double>(crash) / n, 0.2, 0.03);
  EXPECT_NEAR(static_cast<double>(hang) / n, 0.1, 0.03);
  EXPECT_NEAR(static_cast<double>(slow) / n, 0.1, 0.03);
}

TEST(FaultInjector, DisabledNeverInjects) {
  const FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  for (std::uint64_t job = 1; job <= 100; ++job) {
    EXPECT_EQ(injector.draw(job, 1), FaultKind::kNone);
  }
}

TEST(FaultInjector, RejectsBadConfig) {
  FaultConfig cfg;
  cfg.crash_prob = -0.1;
  EXPECT_THROW(FaultInjector{cfg}, std::invalid_argument);
  cfg.crash_prob = 0.6;
  cfg.hang_prob = 0.6;
  EXPECT_THROW(FaultInjector{cfg}, std::invalid_argument);
  cfg = FaultConfig{};
  cfg.slow_prob = 0.1;
  cfg.slow_factor = 0.5;
  EXPECT_THROW(FaultInjector{cfg}, std::invalid_argument);
}

// --------------------------------------------------------------------------
// SimulatedExecutor fault paths (virtual clock: everything is exact).

TEST(SimFaults, TimeoutKillsLongJob) {
  exec::SimulatedExecutor sim(1);
  JobSpec spec;
  spec.timeout_seconds = 50.0;
  sim.submit([] { return EvalOutput{0.9, 100.0, false}; }, spec);
  const auto finished = sim.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].output.failed);
  EXPECT_TRUE(finished[0].output.timed_out);
  EXPECT_EQ(finished[0].attempts, 1u);
  EXPECT_DOUBLE_EQ(finished[0].output.train_seconds, 50.0);
  EXPECT_DOUBLE_EQ(finished[0].finish_time, 50.0);  // killed at the deadline
}

TEST(SimFaults, RetryExhaustionBoundsAttemptsAndBacksOff) {
  RetryPolicy policy;
  policy.backoff_base_seconds = 1.0;
  policy.backoff_max_seconds = 60.0;
  exec::SimulatedExecutor sim(1, 0.0, policy);
  JobSpec spec;
  spec.max_retries = 2;
  sim.submit([]() -> EvalOutput { throw std::runtime_error("diverged"); },
             spec);
  const auto finished = sim.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].output.failed);
  EXPECT_FALSE(finished[0].output.timed_out);  // crash, not a kill
  EXPECT_EQ(finished[0].attempts, 3u);  // 1 try + 2 retries, then give up
  // Attempts of 1s each with backoffs 1s then 2s: 1 +1+ 1 +2+ 1 = 6.
  EXPECT_DOUBLE_EQ(finished[0].finish_time, 6.0);
}

// --- Replica-scoped draws (elastic training's fault source) ---------------

TEST(ReplicaFaults, DrawsAreStatelessAndDomainSeparated) {
  FaultConfig cfg;
  cfg.crash_prob = 0.1;
  cfg.hang_prob = 0.1;
  cfg.slow_prob = 0.1;
  cfg.seed = 42;
  const exec::FaultInjector injector(cfg);
  for (std::uint64_t job = 1; job <= 3; ++job) {
    for (std::size_t replica = 0; replica < 4; ++replica) {
      for (std::uint64_t step = 0; step < 32; ++step) {
        EXPECT_EQ(injector.draw_replica(job, replica, step),
                  injector.draw_replica(job, replica, step));
      }
    }
  }
  // Distinct hash domain: the replica stream must not mirror the job-level
  // attempt stream (that would correlate node death with attempt faults).
  std::size_t diverged = 0;
  for (std::uint64_t step = 1; step <= 64; ++step) {
    if (injector.draw_replica(1, 0, step) != injector.draw(1, step)) {
      ++diverged;
    }
  }
  EXPECT_GT(diverged, 0u);
}

TEST(SimFaults, CrashedAttemptRetriesToSuccess) {
  FaultConfig faults;
  faults.crash_prob = 0.5;
  faults.seed = seed_for_retry_success(faults, FaultKind::kCrash);
  RetryPolicy policy;
  policy.backoff_base_seconds = 4.0;
  exec::SimulatedExecutor sim(1, 0.0, policy, faults);
  JobSpec spec;
  spec.max_retries = 3;
  const auto id = sim.submit([] { return EvalOutput{0.8, 10.0, false}; }, spec);
  EXPECT_EQ(id, 1u);  // seed search assumed the first job id
  const auto finished = sim.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_FALSE(finished[0].output.failed);
  EXPECT_EQ(finished[0].attempts, 2u);
  EXPECT_DOUBLE_EQ(finished[0].output.objective, 0.8);
  // Crash consumes half the duration (5s), backoff 4s, then the full 10s.
  EXPECT_DOUBLE_EQ(finished[0].finish_time, 19.0);
}

TEST(SimFaults, StragglerKilledPastMedianFactor) {
  RetryPolicy policy;
  policy.straggler_factor = 2.0;
  policy.straggler_min_samples = 3;
  policy.backoff_base_seconds = 1.0;
  exec::SimulatedExecutor sim(4, 0.0, policy);
  for (int i = 0; i < 3; ++i) {
    sim.submit([] { return EvalOutput{0.7, 10.0, false}; }, JobSpec{});
  }
  while (!sim.get_finished(true).empty()) {
  }
  // Median of successes is 10s, so the straggler limit is 20s.
  JobSpec spec;
  spec.max_retries = 1;
  sim.submit([] { return EvalOutput{0.9, 50.0, false}; }, spec);
  const auto finished = sim.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].output.failed);
  EXPECT_TRUE(finished[0].output.timed_out);
  EXPECT_EQ(finished[0].attempts, 2u);  // resubmitted once, killed again
  EXPECT_DOUBLE_EQ(finished[0].output.train_seconds, 20.0);
}

TEST(SimFaults, NoStragglerKillBeforeMinSamples) {
  RetryPolicy policy;
  policy.straggler_factor = 2.0;
  policy.straggler_min_samples = 3;
  exec::SimulatedExecutor sim(1, 0.0, policy);
  // No completed jobs yet: no median, so even a huge job must run to term.
  sim.submit([] { return EvalOutput{0.9, 500.0, false}; }, JobSpec{});
  const auto finished = sim.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_FALSE(finished[0].output.failed);
  EXPECT_DOUBLE_EQ(finished[0].finish_time, 500.0);
}

TEST(SimFaults, HangReclaimedOnlyByTimeout) {
  FaultConfig faults;
  faults.hang_prob = 1.0;
  faults.seed = 3;
  RetryPolicy policy;
  policy.backoff_base_seconds = 1.0;
  exec::SimulatedExecutor sim(1, 0.0, policy, faults);
  JobSpec spec;
  spec.timeout_seconds = 10.0;
  spec.max_retries = 1;
  sim.submit([] { return EvalOutput{0.9, 2.0, false}; }, spec);
  const auto finished = sim.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].output.failed);
  EXPECT_TRUE(finished[0].output.timed_out);
  EXPECT_EQ(finished[0].attempts, 2u);
  // Both attempts hang and die at the 10s deadline, 1s backoff between.
  EXPECT_DOUBLE_EQ(finished[0].finish_time, 21.0);
}

TEST(SimFaults, DeterministicReplayOfFaultyCampaign) {
  const auto run = [] {
    FaultConfig faults;
    faults.crash_prob = 0.2;
    faults.hang_prob = 0.05;
    faults.slow_prob = 0.1;
    faults.seed = 99;
    RetryPolicy policy;
    policy.straggler_factor = 3.0;
    policy.straggler_min_samples = 3;
    exec::SimulatedExecutor sim(4, 1.0, policy, faults);
    JobSpec spec;
    spec.timeout_seconds = 30.0;
    spec.max_retries = 2;
    for (int i = 0; i < 40; ++i) {
      const double train = 5.0 + static_cast<double>(i % 7);
      sim.submit([train] { return EvalOutput{0.5, train, false}; }, spec);
    }
    std::vector<std::tuple<std::uint64_t, double, bool, std::size_t>> events;
    while (true) {
      const auto batch = sim.get_finished(true);
      if (batch.empty()) break;
      for (const auto& f : batch) {
        events.emplace_back(f.id, f.finish_time, f.output.failed, f.attempts);
      }
    }
    return events;
  };
  EXPECT_EQ(run(), run());
}

// --------------------------------------------------------------------------
// LiveExecutor fault paths (wall clock: assertions use generous margins).

TEST(LiveFaults, RetryExhaustionBoundsAttempts) {
  exec::LiveExecutor executor(2, quick_backoff());
  JobSpec spec;
  spec.max_retries = 2;
  executor.submit([]() -> EvalOutput { throw std::runtime_error("boom"); },
                  spec);
  const auto finished = executor.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].output.failed);
  EXPECT_EQ(finished[0].attempts, 3u);
  EXPECT_EQ(executor.num_in_flight(), 0u);
}

TEST(LiveFaults, TimeoutReapsSleepingJob) {
  exec::LiveExecutor executor(2, quick_backoff());
  JobSpec spec;
  spec.timeout_seconds = 0.05;
  executor.submit(
      [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        return EvalOutput{0.9, 0.0, false};
      },
      spec);
  const auto finished = executor.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].output.failed);
  EXPECT_TRUE(finished[0].output.timed_out);
  // The manager reaped the attempt at its deadline instead of waiting the
  // full 300ms for the closure to return.
  EXPECT_LT(executor.now(), 0.25);
}

TEST(LiveFaults, CrashedAttemptRetriesToSuccess) {
  FaultConfig faults;
  faults.crash_prob = 0.5;
  faults.seed = seed_for_retry_success(faults, FaultKind::kCrash);
  exec::LiveExecutor executor(1, quick_backoff(), faults);
  JobSpec spec;
  spec.max_retries = 3;
  const auto id = executor.submit([] { return EvalOutput{0.8, 0.0, false}; },
                                  spec);
  EXPECT_EQ(id, 1u);
  const auto finished = executor.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_FALSE(finished[0].output.failed);
  EXPECT_EQ(finished[0].attempts, 2u);
  EXPECT_DOUBLE_EQ(finished[0].output.objective, 0.8);
}

TEST(LiveFaults, InjectedHangKilledAtDeadline) {
  FaultConfig faults;
  faults.hang_prob = 1.0;
  faults.seed = 5;
  exec::LiveExecutor executor(1, quick_backoff(), faults);
  JobSpec spec;
  spec.timeout_seconds = 0.05;
  executor.submit([] { return EvalOutput{0.9, 0.0, false}; }, spec);
  const auto finished = executor.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].output.failed);
  EXPECT_TRUE(finished[0].output.timed_out);
  EXPECT_LT(executor.now(), 1.0);  // the hang did not stall the manager
}

TEST(LiveFaults, StragglerKilledPastMedianFactor) {
  RetryPolicy policy = quick_backoff();
  policy.straggler_factor = 4.0;
  policy.straggler_min_samples = 3;
  exec::LiveExecutor executor(2, policy);
  for (int i = 0; i < 3; ++i) {
    executor.submit(
        [] {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          return EvalOutput{0.7, 0.0, false};
        },
        JobSpec{});
  }
  std::size_t got = 0;
  while (got < 3) got += executor.get_finished(true).size();
  // Median ~20ms, limit ~80ms; a 600ms job is a straggler.
  executor.submit(
      [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(600));
        return EvalOutput{0.9, 0.0, false};
      },
      JobSpec{});
  const auto finished = executor.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].output.failed);
  EXPECT_TRUE(finished[0].output.timed_out);
}

// --------------------------------------------------------------------------
// Executor parity: one table of fault scenarios, run on both executors
// through their shared attempt lifecycle. Scenario lengths are in units:
// one virtual second in the simulator, 10 ms of wall time live.

/// exec.jobs_submitted, attempts, retries, straggler_kills, jobs_failed
/// and jobs_succeeded, in that order.
using ExecCounters = std::array<std::uint64_t, 6>;

ExecCounters read_exec_counters() {
  static const char* const kNames[] = {
      "exec.jobs_submitted", "exec.attempts",    "exec.retries",
      "exec.straggler_kills", "exec.jobs_failed", "exec.jobs_succeeded"};
  ExecCounters c{};
  for (std::size_t i = 0; i < c.size(); ++i) {
    c[i] = obs::Registry::global().counter(kNames[i]).total();
  }
  return c;
}

struct ParityCase {
  const char* name;
  FaultConfig faults;
  double straggler_factor;  ///< 0 = off; else 3 warm-up jobs of 2 units run first
  double job_units;
  bool throws;
  double timeout_units;  ///< 0 = no timeout
  std::size_t max_retries;
  // Expected on both executors.
  std::size_t attempts;
  bool failed;
  bool timed_out;
  ExecCounters deltas;
  /// Tenant busy time in units: exact in the simulator; a lower bound live,
  /// where a killed attempt holds its worker at least until its deadline.
  double sim_busy_units;
  double live_min_busy_units;
};

FaultConfig crash_once() {
  FaultConfig faults;
  faults.crash_prob = 0.5;
  faults.seed = seed_for_retry_success(faults, FaultKind::kCrash);
  return faults;
}

FaultConfig always_hang() {
  FaultConfig faults;
  faults.hang_prob = 1.0;
  faults.seed = 5;
  return faults;
}


struct ParityOutcome {
  exec::Finished finished;
  ExecCounters deltas{};
  double tenant_busy = 0.0;
  double busy = 0.0;
};

ParityOutcome run_parity_case(const ParityCase& c, bool live) {
  const double unit = live ? 0.01 : 1.0;
  const auto job = [live, unit](double units, bool throws) -> exec::EvalFn {
    return [live, unit, units, throws]() -> EvalOutput {
      if (live) {
        std::this_thread::sleep_for(std::chrono::duration<double>(units * unit));
      }
      if (throws) throw std::runtime_error("diverged");
      return EvalOutput{0.9, live ? 0.0 : units, false};
    };
  };
  RetryPolicy policy;
  policy.backoff_base_seconds = 0.5 * unit;
  policy.backoff_max_seconds = 2.0 * unit;
  policy.straggler_factor = c.straggler_factor;
  policy.straggler_min_samples = 3;
  JobSpec spec;
  spec.timeout_seconds = c.timeout_units * unit;
  spec.max_retries = c.max_retries;
  spec.tenant = "parity";

  auto& reg = obs::Registry::global();
  const obs::DCounter tenant = reg.dcounter(exec::tenant_busy_metric("parity"));
  const obs::DCounter busy = reg.dcounter("exec.busy_seconds");
  ParityOutcome result;
  ExecCounters before{};
  double tenant0 = 0.0;
  double busy0 = 0.0;
  {
    std::unique_ptr<exec::Executor> executor;
    if (live) {
      executor = std::make_unique<exec::LiveExecutor>(2, policy, c.faults);
    } else {
      executor = std::make_unique<exec::SimulatedExecutor>(2, 0.0, policy,
                                                           c.faults);
    }
    if (c.straggler_factor > 0.0) {
      for (int i = 0; i < 3; ++i) executor->submit(job(2.0, false), JobSpec{});
      std::size_t got = 0;
      while (got < 3) got += executor->get_finished(true).size();
    }
    before = read_exec_counters();
    tenant0 = tenant.total();
    busy0 = busy.total();
    executor->submit(job(c.job_units, c.throws), spec);
    const auto finished = executor->get_finished(true);
    EXPECT_EQ(finished.size(), 1u);
    if (!finished.empty()) result.finished = finished[0];
    // Destruction joins the pool, so every abandoned live attempt has
    // returned and credited its worker time before the counters are read.
  }
  const ExecCounters after = read_exec_counters();
  for (std::size_t i = 0; i < after.size(); ++i) {
    result.deltas[i] = after[i] - before[i];
  }
  result.tenant_busy = (tenant.total() - tenant0) / unit;
  result.busy = (busy.total() - busy0) / unit;
  return result;
}

TEST(ExecutorParity, FaultScenariosBehaveTheSameOnBothExecutors) {
  const ParityCase cases[] = {
      // An injected crash consumes half the job in the simulator, ~0 live.
      {"crash-then-retry", crash_once(), 0.0, 4.0, false, 0.0, 3,
       2, false, false, {1, 2, 1, 0, 0, 1}, 6.0, 4.0},
      // The simulator books a throwing evaluation as 1 s per attempt.
      {"retry-exhaustion", FaultConfig{}, 0.0, 1.0, true, 0.0, 2,
       3, true, false, {1, 3, 2, 0, 1, 0}, 3.0, 0.0},
      {"job-timeout", FaultConfig{}, 0.0, 30.0, false, 5.0, 0,
       1, true, true, {1, 1, 0, 1, 1, 0}, 5.0, 5.0},
      // Warm-up median 2 units, factor 4: both attempts die at 8 units.
      {"straggler-kill", FaultConfig{}, 4.0, 30.0, false, 0.0, 1,
       2, true, true, {1, 2, 1, 2, 1, 0}, 16.0, 16.0},
      // Live, a hung attempt returns once it sees its cancel token, just
      // after its 5-unit deadline; the bound leaves a unit of slack.
      {"hang-reclaimed-by-timeout", always_hang(), 0.0, 2.0, false, 5.0, 1,
       2, true, true, {1, 2, 1, 2, 1, 0}, 10.0, 9.0},
  };
  for (const ParityCase& c : cases) {
    for (const bool live : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (live ? " [live]" : " [sim]"));
      const ParityOutcome got = run_parity_case(c, live);
      EXPECT_EQ(got.finished.attempts, c.attempts);
      EXPECT_EQ(got.finished.output.failed, c.failed);
      EXPECT_EQ(got.finished.output.timed_out, c.timed_out);
      EXPECT_EQ(got.deltas, c.deltas);
      // Every attempt, killed and retried ones included, is charged to the
      // tenant exactly as to exec.busy_seconds.
      EXPECT_NEAR(got.tenant_busy, got.busy, 1e-9 * (1.0 + got.busy));
      EXPECT_GT(got.tenant_busy, 0.0);
      if (live) {
        EXPECT_GE(got.tenant_busy, c.live_min_busy_units);
      } else {
        EXPECT_DOUBLE_EQ(got.tenant_busy, c.sim_busy_units);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Graceful degradation of AgeboSearch under faults.

TEST(SearchFaults, AllCrashingCampaignTerminatesWithFailedHistory) {
  nas::SearchSpace space;
  eval::SurrogateEvaluator evaluator(space, eval::covertype_profile());
  FaultConfig faults;
  faults.crash_prob = 1.0;
  faults.seed = 11;
  exec::SimulatedExecutor executor(8, 0.0, RetryPolicy{}, faults);
  auto cfg = core::age_config(8, 5);
  cfg.wall_time_seconds = 60.0 * 60.0;
  cfg.eval_max_retries = 1;
  core::AgeboSearch search(space, evaluator, executor, cfg);
  const auto result = search.run();
  ASSERT_FALSE(result.history.empty());
  for (const auto& rec : result.history) {
    EXPECT_TRUE(rec.failed);
    EXPECT_DOUBLE_EQ(rec.objective, 0.0);
    EXPECT_EQ(rec.attempts, 2u);  // one retry each, then reported failed
  }
  EXPECT_DOUBLE_EQ(result.best_objective, 0.0);
}

// The ISSUE acceptance scenario: 10% crashes + 5% stragglers must not cost
// the campaign more than 5% of its failure-free best objective.
TEST(SearchFaults, FaultyCampaignWithinFivePercentOfCleanBest) {
  nas::SearchSpace space;
  const auto run = [&space](FaultConfig faults, RetryPolicy policy,
                            std::size_t max_retries) {
    eval::SurrogateEvaluator evaluator(space, eval::covertype_profile());
    exec::SimulatedExecutor executor(32, 30.0, policy, faults);
    auto cfg = core::agebo_config(1);
    cfg.wall_time_seconds = 120.0 * 60.0;
    cfg.eval_timeout_seconds = 90.0 * 60.0;
    cfg.eval_max_retries = max_retries;
    core::AgeboSearch search(space, evaluator, executor, cfg);
    return search.run();
  };

  const auto clean = run(FaultConfig{}, RetryPolicy{}, 0);

  FaultConfig faults;
  faults.crash_prob = 0.10;
  faults.slow_prob = 0.05;  // stragglers, reclaimed by the median rule
  faults.seed = 17;
  RetryPolicy policy;
  policy.backoff_base_seconds = 30.0;
  policy.backoff_max_seconds = 300.0;
  policy.straggler_factor = 3.0;
  policy.straggler_min_samples = 5;
  const auto faulty = run(faults, policy, 2);

  ASSERT_FALSE(clean.history.empty());
  ASSERT_FALSE(faulty.history.empty());

  // Retries stay bounded by max_retries, and failures degraded gracefully:
  // recorded, zero-scored, never aged into the population (the search keeps
  // running to the full budget either way).
  std::size_t n_failed = 0, n_retried = 0;
  for (const auto& rec : faulty.history) {
    EXPECT_LE(rec.attempts, 3u);  // 1 + max_retries
    if (rec.failed) {
      ++n_failed;
      EXPECT_DOUBLE_EQ(rec.objective, 0.0);
    }
    if (rec.attempts > 1) ++n_retried;
  }
  EXPECT_GT(n_retried, 0u);  // faults actually fired
  EXPECT_GE(faulty.best_objective, 0.95 * clean.best_objective);
}

// --------------------------------------------------------------------------
// EvalRequest deadline plumbed through the surrogate evaluator.

TEST(EvalRequestDeadline, OverlongTrainingReportedAsTimeout) {
  nas::SearchSpace space;
  eval::SurrogateEvaluator evaluator(space, eval::covertype_profile());
  Rng rng(8);
  eval::ModelConfig config{space.random(rng), eval::default_hparams(2)};
  const auto unconstrained = evaluator.evaluate(config);
  ASSERT_GT(unconstrained.train_seconds, 0.0);
  const auto clipped =
      evaluator.evaluate({config, 1.0, unconstrained.train_seconds * 0.5});
  EXPECT_TRUE(clipped.failed);
  EXPECT_TRUE(clipped.timed_out);
  EXPECT_DOUBLE_EQ(clipped.objective, 0.0);
  EXPECT_DOUBLE_EQ(clipped.train_seconds, unconstrained.train_seconds * 0.5);
}

// --------------------------------------------------------------------------
// History CSV round-trips the failed/attempts columns; legacy files load.

TEST(HistoryFaults, FailedAndAttemptsRoundTrip) {
  nas::SearchSpace space;
  Rng rng(14);
  core::SearchResult result;
  core::EvalRecord rec;
  rec.index = 0;
  rec.finish_time = 12.5;
  rec.objective = 0.0;
  rec.train_seconds = 30.0;
  rec.failed = true;
  rec.attempts = 3;
  rec.config.genome = space.random(rng);
  rec.config.hparams = {256.0, 0.01, 2.0};
  result.history.push_back(rec);

  std::stringstream ss;
  core::save_history(result, ss);
  const auto loaded = core::load_history(ss, space);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded[0].failed);
  EXPECT_EQ(loaded[0].attempts, 3u);
}

TEST(HistoryFaults, LegacyHeaderStillLoads) {
  nas::SearchSpace space;
  Rng rng(15);
  const auto genome = space.random(rng);
  std::ostringstream row;
  for (std::size_t i = 0; i < genome.size(); ++i) {
    if (i) row << '-';
    row << genome[i];
  }
  std::stringstream ss;
  ss << "index,finish_time,objective,train_seconds,bs1,lr1,n,genome\n"
     << "0,10,0.8,600,256,0.01,2," << row.str() << "\n";
  const auto loaded = core::load_history(ss, space);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_FALSE(loaded[0].failed);
  EXPECT_EQ(loaded[0].attempts, 1u);
  EXPECT_DOUBLE_EQ(loaded[0].objective, 0.8);
}

// --------------------------------------------------------------------------
// Elastic columns: round-trip, loading the two older generations, and
// per-row format detection (the seam the checkpoint loaders rely on).

TEST(HistoryElastic, DegradedAndFinalWorldRoundTrip) {
  nas::SearchSpace space;
  Rng rng(16);
  core::SearchResult result;
  core::EvalRecord rec;
  rec.index = 4;
  rec.finish_time = 90.0;
  rec.objective = 0.71;
  rec.train_seconds = 42.0;
  rec.attempts = 1;
  rec.degraded = true;
  rec.final_world = 3;
  rec.config.genome = space.random(rng);
  rec.config.hparams = {128.0, 0.004, 4.0};
  result.history.push_back(rec);

  std::stringstream ss;
  core::save_history(result, ss);
  const auto loaded = core::load_history(ss, space);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded[0].degraded);
  EXPECT_EQ(loaded[0].final_world, 3u);
  EXPECT_FALSE(loaded[0].failed);
}

TEST(HistoryElastic, FaultEraHeaderStillLoads) {
  nas::SearchSpace space;
  Rng rng(17);
  const auto genome = space.random(rng);
  std::ostringstream row;
  for (std::size_t i = 0; i < genome.size(); ++i) {
    if (i) row << '-';
    row << genome[i];
  }
  // The pre-elastic generation: failed/attempts but no degraded/final_world.
  std::stringstream ss;
  ss << "index,finish_time,objective,train_seconds,failed,attempts,bs1,lr1,n,"
        "genome\n"
     << "0,10,0.8,600,1,2,256,0.01,2," << row.str() << "\n";
  const auto loaded = core::load_history(ss, space);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded[0].failed);
  EXPECT_EQ(loaded[0].attempts, 2u);
  EXPECT_FALSE(loaded[0].degraded);
  EXPECT_EQ(loaded[0].final_world, 0u);
}

TEST(HistoryElastic, RowFormatDetectedByCellCount) {
  const std::string genome = "1-2-3";
  const std::string legacy = "0,10,0.8,600,256,0.01,2," + genome;
  const std::string fault_v2 = "0,10,0.8,600,0,1,256,0.01,2," + genome;
  const std::string current = "0,10,0.8,600,0,1,1,3,256,0.01,2," + genome;
  EXPECT_EQ(core::history_row_format(legacy, "t"),
            core::HistoryFormat::kLegacy);
  EXPECT_EQ(core::history_row_format(fault_v2, "t"),
            core::HistoryFormat::kFaultV2);
  EXPECT_EQ(core::history_row_format(current, "t"),
            core::HistoryFormat::kCurrent);
  EXPECT_THROW(core::history_row_format("0,1,2", "t"), std::runtime_error);
  EXPECT_THROW(core::history_row_format(current + ",extra", "t"),
               std::runtime_error);
}

}  // namespace
}  // namespace agebo
