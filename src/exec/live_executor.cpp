#include "exec/live_executor.hpp"

#include <algorithm>
#include <limits>
#include <thread>

#include "obs/span.hpp"

namespace agebo::exec {

namespace {

/// Sleep up to `seconds`, returning early (and often) so cancellation and
/// shutdown are observed within a few milliseconds.
void interruptible_sleep(double seconds, const std::atomic<bool>& cancel,
                         const std::atomic<bool>& shutdown) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cancel.load() || shutdown.load()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

LiveExecutor::LiveExecutor(std::size_t n_workers, RetryPolicy policy,
                           FaultConfig faults)
    : start_(std::chrono::steady_clock::now()),
      policy_(policy),
      injector_(faults),
      shutdown_(std::make_shared<std::atomic<bool>>(false)),
      pool_(n_workers) {
  auto& reg = obs::Registry::global();
  m_submitted_ = reg.counter("exec.jobs_submitted");
  m_attempts_ = reg.counter("exec.attempts");
  m_retries_ = reg.counter("exec.retries");
  m_kills_ = reg.counter("exec.straggler_kills");
  m_failed_ = reg.counter("exec.jobs_failed");
  m_succeeded_ = reg.counter("exec.jobs_succeeded");
  m_busy_ = reg.dcounter("exec.busy_seconds");
  m_in_flight_ = reg.gauge("exec.in_flight");
  busy_baseline_ = m_busy_.total();
}

LiveExecutor::~LiveExecutor() {
  shutdown_->store(true);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, job] : jobs_) {
      (void)id;
      if (job.cancel) job.cancel->store(true);
    }
  }
  // pool_ (the last member) now joins its workers; everything they touch is
  // still alive.
}

double LiveExecutor::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

void LiveExecutor::start_attempt_locked(std::uint64_t id, double delay_seconds) {
  Job& job = jobs_.at(id);
  const std::size_t attempt = job.attempt;
  const auto fn = job.fn;
  const auto token = job.cancel;
  const auto shutdown = shutdown_;
  const obs::DCounter tenant_busy = job.tenant_busy;
  pool_.enqueue([this, id, attempt, fn, token, shutdown, tenant_busy,
                 delay_seconds] {
    if (delay_seconds > 0.0) {
      interruptible_sleep(delay_seconds, *token, *shutdown);
    }
    if (shutdown->load() || token->load()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = jobs_.find(id);
      if (it == jobs_.end() || it->second.cancel != token) return;  // stale
      it->second.started = true;
      it->second.start_time = now();
    }
    // Wake get_finished so it can arm this attempt's deadline.
    cv_.notify_all();

    const double t0 = now();
    m_attempts_.inc();
    EvalOutput out;
    {
      OBS_SPAN("exec.attempt", {{"job", std::to_string(id)},
                                {"attempt", std::to_string(attempt)}});
      const FaultKind fault = injector_.draw(id, attempt);
      if (fault == FaultKind::kCrash) {
        out.failed = true;
        out.objective = 0.0;
      } else {
        try {
          out = (*fn)();
        } catch (...) {
          out.failed = true;
          out.objective = 0.0;
        }
        if (fault == FaultKind::kHang) {
          while (!token->load() && !shutdown->load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        } else if (fault == FaultKind::kSlow) {
          interruptible_sleep(
              (injector_.config().slow_factor - 1.0) * (now() - t0), *token,
              *shutdown);
        }
      }
    }
    const double t1 = now();
    m_busy_.add(t1 - t0);
    // Tenant accounting mirrors exec.busy_seconds exactly: killed and
    // retried attempts consumed real worker time, so they count.
    tenant_busy.add(t1 - t0);

    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = jobs_.find(id);
      if (it == jobs_.end() || it->second.cancel != token || token->load()) {
        return;  // attempt was killed while running: result dropped
      }
      Job& j = it->second;
      if (out.train_seconds <= 0.0) out.train_seconds = t1 - t0;
      if (!out.failed) {
        record_duration(done_durations_, t1 - t0);
        finished_.push_back(Finished{id, out, t1, j.attempt, j.spec.tag});
        jobs_.erase(it);
        m_succeeded_.inc();
        m_in_flight_.set(static_cast<double>(jobs_.size()));
      } else if (j.attempt <= j.spec.max_retries) {
        const double backoff = backoff_delay_jittered(policy_, j.attempt, id);
        j.attempt += 1;
        j.started = false;
        j.cancel = std::make_shared<std::atomic<bool>>(false);
        start_attempt_locked(id, backoff);
        m_retries_.inc();
      } else {
        out.objective = 0.0;
        finished_.push_back(Finished{id, out, t1, j.attempt, j.spec.tag});
        jobs_.erase(it);
        m_failed_.inc();
        m_in_flight_.set(static_cast<double>(jobs_.size()));
      }
    }
    cv_.notify_all();
  });
}

std::uint64_t LiveExecutor::submit(EvalFn fn, const JobSpec& spec) {
  std::uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    Job job;
    job.fn = std::make_shared<const EvalFn>(std::move(fn));
    job.spec = spec;
    if (!spec.tenant.empty()) {
      job.tenant_busy =
          obs::Registry::global().dcounter(tenant_busy_metric(spec.tenant));
    }
    job.cancel = std::make_shared<std::atomic<bool>>(false);
    jobs_.emplace(id, std::move(job));
    start_attempt_locked(id, 0.0);
    m_submitted_.inc();
    m_in_flight_.set(static_cast<double>(jobs_.size()));
  }
  return id;
}

void LiveExecutor::reap_expired_locked() {
  const double t = now();
  std::vector<std::uint64_t> expired;
  for (const auto& [id, job] : jobs_) {
    if (!job.started || job.cancel->load()) continue;
    const double limit = attempt_limit(policy_, job.spec, done_durations_);
    if (t - job.start_time > limit) expired.push_back(id);
  }
  for (const std::uint64_t id : expired) {
    Job& job = jobs_.at(id);
    job.cancel->store(true);  // abandon the running attempt
    m_kills_.inc();
    if (job.attempt <= job.spec.max_retries) {
      const double backoff = backoff_delay_jittered(policy_, job.attempt, id);
      job.attempt += 1;
      job.started = false;
      job.cancel = std::make_shared<std::atomic<bool>>(false);
      start_attempt_locked(id, backoff);
      m_retries_.inc();
    } else {
      EvalOutput out;
      out.failed = true;
      out.timed_out = true;
      out.objective = 0.0;
      out.train_seconds = t - job.start_time;
      finished_.push_back(Finished{id, out, t, job.attempt, job.spec.tag});
      jobs_.erase(id);
      m_failed_.inc();
      m_in_flight_.set(static_cast<double>(jobs_.size()));
    }
  }
}

std::vector<Finished> LiveExecutor::get_finished(bool block) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    reap_expired_locked();
    if (!finished_.empty() || jobs_.empty() || !block) break;

    // Sleep until the earliest deadline of a started attempt (plus a small
    // grace so we wake after it, not at it), or indefinitely when nothing
    // can time out — completions and attempt starts notify cv_.
    double next_deadline = std::numeric_limits<double>::infinity();
    for (const auto& [id, job] : jobs_) {
      (void)id;
      if (!job.started || job.cancel->load()) continue;
      const double limit = attempt_limit(policy_, job.spec, done_durations_);
      if (limit < std::numeric_limits<double>::infinity()) {
        next_deadline = std::min(next_deadline, job.start_time + limit);
      }
    }
    if (next_deadline < std::numeric_limits<double>::infinity()) {
      cv_.wait_until(lock, start_ + std::chrono::duration_cast<
                                        std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(next_deadline +
                                                             0.002)));
    } else {
      cv_.wait(lock);
    }
  }
  std::vector<Finished> out;
  out.swap(finished_);
  return out;
}

std::size_t LiveExecutor::num_in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_.size();
}

Utilization LiveExecutor::utilization() const {
  // One code path with SimulatedExecutor: busy worker time is this
  // executor's delta of the shared `exec.busy_seconds` obs counter.
  std::lock_guard<std::mutex> lock(mu_);
  Utilization u;
  u.busy_worker_seconds = m_busy_.total() - busy_baseline_;
  u.elapsed_seconds = now();
  u.workers = pool_.size();
  return u;
}

}  // namespace agebo::exec
