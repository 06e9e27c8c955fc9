// Unit tests for src/exec: thread pool, live executor, the event-driven
// cluster simulator (queueing semantics, virtual clock, utilization) and
// the attempt lifecycle both share, driven by a fake clock. Fault-path
// coverage of the executors (timeouts, retries, stragglers, injection)
// lives in test_faults.cpp; both files carry the ctest label faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "exec/attempt_lifecycle.hpp"
#include "exec/live_executor.hpp"
#include "exec/sim_executor.hpp"
#include "exec/thread_pool.hpp"
#include "obs/registry.hpp"

namespace agebo::exec {
namespace {

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.enqueue([&counter] { counter++; });
  }
  // Destructor drains the queue.
  while (counter.load() < 100) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, SurvivesThrowingTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.enqueue([] { throw std::runtime_error("task boom"); });
  pool.enqueue([&counter] { counter++; });
  while (counter.load() < 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(counter.load(), 1);
}

TEST(LiveExecutor, RunsJobsAndCollectsResults) {
  LiveExecutor executor(2);
  const auto id1 = executor.submit(
      [] {
        EvalOutput out;
        out.objective = 0.5;
        return out;
      },
      JobSpec{});
  const auto id2 = executor.submit(
      [] {
        EvalOutput out;
        out.objective = 0.7;
        return out;
      },
      JobSpec{});
  std::vector<Finished> all;
  while (all.size() < 2) {
    auto batch = executor.get_finished(true);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(all.size(), 2u);
  double sum = 0.0;
  for (const auto& f : all) {
    EXPECT_TRUE(f.id == id1 || f.id == id2);
    EXPECT_EQ(f.attempts, 1u);
    sum += f.output.objective;
  }
  EXPECT_NEAR(sum, 1.2, 1e-12);
}

TEST(LiveExecutor, ExceptionBecomesFailedResult) {
  LiveExecutor executor(1);
  executor.submit([]() -> EvalOutput { throw std::runtime_error("boom"); },
                  JobSpec{});
  auto finished = executor.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].output.failed);
  EXPECT_DOUBLE_EQ(finished[0].output.objective, 0.0);
}

TEST(LiveExecutor, GetFinishedEmptyWhenIdle) {
  LiveExecutor executor(1);
  EXPECT_TRUE(executor.get_finished(true).empty());
  EXPECT_EQ(executor.num_in_flight(), 0u);
}

TEST(LiveExecutor, MeasuresTrainSecondsWhenUnset) {
  LiveExecutor executor(1);
  executor.submit(
      [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return EvalOutput{0.9, 0.0, false};
      },
      JobSpec{});
  auto finished = executor.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_GE(finished[0].output.train_seconds, 0.02);
}

TEST(LiveExecutor, TagEchoedBack) {
  LiveExecutor executor(1);
  JobSpec spec;
  spec.tag = "probe";
  executor.submit([] { return EvalOutput{0.5, 0.0, false}; }, spec);
  auto finished = executor.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_EQ(finished[0].tag, "probe");
}

TEST(SimExecutor, SingleJobAdvancesClockToDuration) {
  SimulatedExecutor sim(4);
  sim.submit([] { return EvalOutput{0.8, 100.0, false}; }, JobSpec{});
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  auto finished = sim.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_DOUBLE_EQ(finished[0].finish_time, 100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(SimExecutor, ParallelJobsShareWorkers) {
  // 2 workers, 3 jobs of 10s: third queues behind the first free worker.
  SimulatedExecutor sim(2);
  for (int i = 0; i < 3; ++i) {
    sim.submit([] { return EvalOutput{0.5, 10.0, false}; }, JobSpec{});
  }
  auto first = sim.get_finished(true);
  EXPECT_EQ(first.size(), 2u);  // both 10s jobs finish together
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  auto second = sim.get_finished(true);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_DOUBLE_EQ(second[0].finish_time, 20.0);
}

TEST(SimExecutor, JobsSubmittedLaterStartAtCurrentClock) {
  SimulatedExecutor sim(1);
  sim.submit([] { return EvalOutput{0.5, 5.0, false}; }, JobSpec{});
  sim.get_finished(true);  // clock -> 5
  sim.submit([] { return EvalOutput{0.5, 7.0, false}; }, JobSpec{});
  auto finished = sim.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_DOUBLE_EQ(finished[0].finish_time, 12.0);
}

TEST(SimExecutor, NonBlockingReturnsEmptyBeforeCompletion) {
  SimulatedExecutor sim(1);
  sim.submit([] { return EvalOutput{0.5, 50.0, false}; }, JobSpec{});
  EXPECT_TRUE(sim.get_finished(false).empty());
  EXPECT_EQ(sim.num_in_flight(), 1u);
}

TEST(SimExecutor, DeterministicTieBreakById) {
  SimulatedExecutor sim(4);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(
        sim.submit([] { return EvalOutput{0.5, 10.0, false}; }, JobSpec{}));
  }
  auto finished = sim.get_finished(true);
  ASSERT_EQ(finished.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(finished[i].id, ids[i]);
}

TEST(SimExecutor, FailedEvalReported) {
  SimulatedExecutor sim(1);
  sim.submit([]() -> EvalOutput { throw std::runtime_error("x"); }, JobSpec{});
  auto finished = sim.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].output.failed);
}

TEST(SimExecutor, UtilizationFullWhenSaturated) {
  SimulatedExecutor sim(2);
  for (int i = 0; i < 4; ++i) {
    sim.submit([] { return EvalOutput{0.5, 10.0, false}; }, JobSpec{});
  }
  while (!sim.get_finished(true).empty()) {
  }
  const auto u = sim.utilization();
  EXPECT_EQ(u.workers, 2u);
  EXPECT_NEAR(u.fraction(), 1.0, 1e-9);
}

TEST(SimExecutor, OverheadLowersUtilization) {
  // 10s jobs with 2.5s launch overhead: utilization 10 / 12.5 = 80%.
  SimulatedExecutor sim(1, 2.5);
  for (int i = 0; i < 4; ++i) {
    sim.submit([] { return EvalOutput{0.5, 10.0, false}; }, JobSpec{});
  }
  while (!sim.get_finished(true).empty()) {
  }
  EXPECT_NEAR(sim.utilization().fraction(), 0.8, 1e-9);
}

TEST(SimExecutor, ZeroDurationClampedToEpsilon) {
  SimulatedExecutor sim(1);
  sim.submit([] { return EvalOutput{0.5, 0.0, false}; }, JobSpec{});
  auto finished = sim.get_finished(true);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_GT(finished[0].finish_time, 0.0);
}

TEST(SimExecutor, RejectsBadConstruction) {
  EXPECT_THROW(SimulatedExecutor(0), std::invalid_argument);
  EXPECT_THROW(SimulatedExecutor(1, -1.0), std::invalid_argument);
}

TEST(Utilization, FractionHandlesZeroElapsed) {
  Utilization u;
  EXPECT_DOUBLE_EQ(u.fraction(), 0.0);
}

TEST(RetryPolicy, BackoffDoublesAndCaps) {
  RetryPolicy policy;
  policy.backoff_base_seconds = 2.0;
  policy.backoff_max_seconds = 10.0;
  EXPECT_DOUBLE_EQ(backoff_delay(policy, 1), 2.0);
  EXPECT_DOUBLE_EQ(backoff_delay(policy, 2), 4.0);
  EXPECT_DOUBLE_EQ(backoff_delay(policy, 3), 8.0);
  EXPECT_DOUBLE_EQ(backoff_delay(policy, 4), 10.0);  // capped
  EXPECT_DOUBLE_EQ(backoff_delay(policy, 9), 10.0);
}

// The lifecycle never reads a clock: a fake one (plain doubles) drives it.
TEST(AttemptLifecycle, FakeClockDelaysAndLimitsFollowThePolicy) {
  RetryPolicy policy;
  policy.backoff_base_seconds = 2.0;
  policy.backoff_max_seconds = 10.0;
  policy.straggler_factor = 3.0;
  policy.straggler_min_samples = 3;
  auto& reg = obs::Registry::global();
  const auto retries0 = reg.counter("exec.retries").total();
  const auto kills0 = reg.counter("exec.straggler_kills").total();
  const auto failed0 = reg.counter("exec.jobs_failed").total();
  const auto succeeded0 = reg.counter("exec.jobs_succeeded").total();
  AttemptLifecycle life(policy);
  JobSpec spec;
  spec.timeout_seconds = 100.0;
  spec.max_retries = 4;
  std::vector<double> sorted;
  EXPECT_EQ(life.limit(spec), attempt_limit(policy, spec, sorted));

  // Job 1 fails five times: four retries after backoff_delay, then its
  // one failed record, stamped with the caller's time.
  double now = 0.0;
  for (std::size_t attempt = 1; attempt <= 4; ++attempt) {
    now += 1.0;
    const Verdict v =
        life.end(1, attempt, spec, Ending::kFailed, EvalOutput{}, 1.0, now);
    ASSERT_TRUE(v.retry);
    EXPECT_EQ(v.backoff, backoff_delay(policy, attempt));
  }
  const Verdict failed = life.end(1, 5, spec, Ending::kFailed,
                                  EvalOutput{0.7, 3.0, true}, 3.0, 42.0);
  ASSERT_FALSE(failed.retry);
  EXPECT_EQ(failed.finished.id, 1u);
  EXPECT_EQ(failed.finished.attempts, 5u);
  EXPECT_EQ(failed.finished.finish_time, 42.0);
  EXPECT_TRUE(failed.finished.output.failed);
  EXPECT_FALSE(failed.finished.output.timed_out);
  EXPECT_EQ(failed.finished.output.objective, 0.0);
  EXPECT_EQ(failed.finished.output.train_seconds, 3.0);

  // Successes are the job's record and feed the straggler median.
  std::uint64_t job = 2;
  for (const double d : {9.0, 3.0, 6.0, 12.0}) {
    now += d;
    const Verdict v = life.end(job++, 1, spec, Ending::kSucceeded,
                               EvalOutput{0.8, d, false}, d, now);
    ASSERT_FALSE(v.retry);
    EXPECT_EQ(v.finished.output.objective, 0.8);
    EXPECT_EQ(v.finished.finish_time, now);
    sorted.insert(std::lower_bound(sorted.begin(), sorted.end(), d), d);
    EXPECT_EQ(life.durations(), sorted);
    EXPECT_EQ(life.limit(spec), attempt_limit(policy, spec, sorted));
  }
  EXPECT_DOUBLE_EQ(life.limit(spec), 3.0 * 7.5);  // median of 3, 6, 9, 12

  // A kill with no budget left is a fresh timed-out record of the time
  // consumed, whatever the attempt's output said; kills never enter the
  // median.
  const Verdict killed = life.end(9, 1, JobSpec{}, Ending::kKilled,
                                  EvalOutput{0.9, 50.0, false}, 22.5, 100.0);
  ASSERT_FALSE(killed.retry);
  EXPECT_TRUE(killed.finished.output.failed);
  EXPECT_TRUE(killed.finished.output.timed_out);
  EXPECT_EQ(killed.finished.output.objective, 0.0);
  EXPECT_EQ(killed.finished.output.train_seconds, 22.5);
  EXPECT_EQ(life.durations(), sorted);

  EXPECT_EQ(reg.counter("exec.retries").total() - retries0, 4u);
  EXPECT_EQ(reg.counter("exec.straggler_kills").total() - kills0, 1u);
  EXPECT_EQ(reg.counter("exec.jobs_failed").total() - failed0, 2u);
  EXPECT_EQ(reg.counter("exec.jobs_succeeded").total() - succeeded0, 4u);
}

TEST(AttemptLifecycle, AdmitResolvesOneTenantHandle) {
  AttemptLifecycle life(RetryPolicy{});
  auto& reg = obs::Registry::global();
  const auto submitted0 = reg.counter("exec.jobs_submitted").total();
  const obs::DCounter metric =
      reg.dcounter(tenant_busy_metric("lifecycle-test"));
  const double before = metric.total();
  JobSpec spec;
  spec.tenant = "lifecycle-test";
  life.admit(spec).add(1.5);
  life.admit(spec).add(2.0);
  life.admit(JobSpec{}).add(4.0);  // default tenant: a null handle
  EXPECT_DOUBLE_EQ(metric.total() - before, 3.5);
  EXPECT_EQ(reg.counter("exec.jobs_submitted").total() - submitted0, 3u);
}

}  // namespace
}  // namespace agebo::exec
