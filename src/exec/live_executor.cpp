#include "exec/live_executor.hpp"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

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
      injector_(faults),
      shutdown_(std::make_shared<std::atomic<bool>>(false)),
      lifecycle_(policy),
      m_in_flight_(obs::Registry::global().gauge("exec.in_flight")),
      pool_(n_workers) {}

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
    lifecycle_.begin();
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
    lifecycle_.add_busy(t1 - t0);
    // Tenant accounting mirrors exec.busy_seconds exactly: killed and
    // retried attempts consumed real worker time, so they count.
    tenant_busy.add(t1 - t0);

    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = jobs_.find(id);
      if (it == jobs_.end() || it->second.cancel != token || token->load()) {
        return;  // attempt was killed while running: result dropped
      }
      if (out.train_seconds <= 0.0) out.train_seconds = t1 - t0;
      const Ending how = out.failed ? Ending::kFailed : Ending::kSucceeded;
      end_attempt_locked(id, how, std::move(out), t1 - t0, t1);
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
    job.tenant_busy = lifecycle_.admit(spec);
    job.cancel = std::make_shared<std::atomic<bool>>(false);
    jobs_.emplace(id, std::move(job));
    start_attempt_locked(id, 0.0);
    m_in_flight_.set(static_cast<double>(jobs_.size()));
  }
  return id;
}

void LiveExecutor::end_attempt_locked(std::uint64_t id, Ending how,
                                      EvalOutput out, double consumed,
                                      double t) {
  Job& job = jobs_.at(id);
  Verdict verdict = lifecycle_.end(id, job.attempt, job.spec, how,
                                   std::move(out), consumed, t);
  if (verdict.retry) {
    job.attempt += 1;
    job.started = false;
    job.cancel = std::make_shared<std::atomic<bool>>(false);
    start_attempt_locked(id, verdict.backoff);
    return;
  }
  finished_.push_back(std::move(verdict.finished));
  jobs_.erase(id);
  m_in_flight_.set(static_cast<double>(jobs_.size()));
}

void LiveExecutor::reap_expired_locked() {
  const double t = now();
  std::vector<std::uint64_t> expired;
  for (const auto& [id, job] : jobs_) {
    if (!job.started || job.cancel->load()) continue;
    if (t - job.start_time > lifecycle_.limit(job.spec)) expired.push_back(id);
  }
  for (const std::uint64_t id : expired) {
    Job& job = jobs_.at(id);
    job.cancel->store(true);  // abandon the running attempt
    end_attempt_locked(id, Ending::kKilled, EvalOutput{}, t - job.start_time,
                       t);
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
      const double limit = lifecycle_.limit(job.spec);
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
  u.busy_worker_seconds = lifecycle_.busy_seconds();
  u.elapsed_seconds = now();
  u.workers = pool_.size();
  return u;
}

}  // namespace agebo::exec
