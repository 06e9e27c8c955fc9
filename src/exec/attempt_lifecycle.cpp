#include "exec/attempt_lifecycle.hpp"

#include <algorithm>
#include <utility>

namespace agebo::exec {

AttemptLifecycle::AttemptLifecycle(RetryPolicy policy) : policy_(policy) {
  auto& reg = obs::Registry::global();
  m_submitted_ = reg.counter("exec.jobs_submitted");
  m_attempts_ = reg.counter("exec.attempts");
  m_retries_ = reg.counter("exec.retries");
  m_kills_ = reg.counter("exec.straggler_kills");
  m_failed_ = reg.counter("exec.jobs_failed");
  m_succeeded_ = reg.counter("exec.jobs_succeeded");
  m_busy_ = reg.dcounter("exec.busy_seconds");
  busy_baseline_ = m_busy_.total();
}

obs::DCounter AttemptLifecycle::admit(const JobSpec& spec) {
  m_submitted_.inc();
  if (spec.tenant.empty()) return {};
  auto it = tenant_busy_.find(spec.tenant);
  if (it == tenant_busy_.end()) {
    it = tenant_busy_
             .emplace(spec.tenant, obs::Registry::global().dcounter(
                                       tenant_busy_metric(spec.tenant)))
             .first;
  }
  return it->second;
}

Verdict AttemptLifecycle::end(std::uint64_t job, std::size_t attempt,
                              const JobSpec& spec, Ending how, EvalOutput out,
                              double consumed, double now) {
  if (how == Ending::kKilled) m_kills_.inc();
  Verdict verdict;
  if (how == Ending::kSucceeded) {
    durations_.insert(
        std::lower_bound(durations_.begin(), durations_.end(), consumed),
        consumed);
    m_succeeded_.inc();
  } else if (attempt <= spec.max_retries) {
    m_retries_.inc();
    verdict.retry = true;
    verdict.backoff = backoff_delay(policy_, attempt);
    return verdict;
  } else {
    if (how == Ending::kKilled) {
      out = EvalOutput{};
      out.timed_out = true;
      out.train_seconds = consumed;
    }
    out.failed = true;
    out.objective = 0.0;
    m_failed_.inc();
  }
  verdict.finished = Finished{job, std::move(out), now, attempt, spec.tag};
  return verdict;
}

}  // namespace agebo::exec
