#include "exec/sim_executor.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/state_io.hpp"
#include "obs/span.hpp"

namespace agebo::exec {

namespace {

// A hang runs this many times its nominal duration: effectively forever
// unless a timeout or the straggler rule reclaims the workers (an unkilled
// hang pushes its completion far past any campaign budget, which is the
// simulated analogue of stalling the machine).
constexpr double kHangFactor = 1e9;

/// Trace lane for a simulated worker; zero-padded so lanes sort by index.
std::string worker_lane(std::size_t worker) {
  std::string digits = std::to_string(worker);
  while (digits.size() < 3) digits.insert(digits.begin(), '0');
  return "sim.worker." + digits;
}

const char* attempt_status(FaultKind fault, bool killed, bool eval_failed) {
  if (killed) return fault == FaultKind::kHang ? "hang-killed" : "timeout";
  if (fault == FaultKind::kCrash) return "crash";
  if (eval_failed) return "error";
  if (fault == FaultKind::kSlow) return "slow";
  return "ok";
}

}  // namespace

SimulatedExecutor::SimulatedExecutor(std::size_t n_workers,
                                     double job_overhead_seconds,
                                     RetryPolicy policy, FaultConfig faults)
    : job_overhead_(job_overhead_seconds),
      lifecycle_(policy),
      injector_(faults),
      worker_free_at_(n_workers, 0.0) {
  if (n_workers == 0) throw std::invalid_argument("SimulatedExecutor: zero workers");
  if (job_overhead_seconds < 0.0) {
    throw std::invalid_argument("SimulatedExecutor: negative overhead");
  }
}

void SimulatedExecutor::claim_gang(std::size_t width) {
  gang_scratch_.clear();
  if (width == 1) {
    // Hot path for single-worker jobs: one argmin scan over the free
    // times instead of materializing and partial-sorting an index vector.
    // Strict < keeps the first minimal index, the same worker the sort
    // picked, so trajectories are unchanged — at 10k simulated workers
    // this is what makes per-submit cost flat in allocations.
    std::size_t best = 0;
    for (std::size_t i = 1; i < worker_free_at_.size(); ++i) {
      if (worker_free_at_[i] < worker_free_at_[best]) best = i;
    }
    gang_scratch_.push_back(best);
    return;
  }
  gang_order_scratch_.resize(worker_free_at_.size());
  for (std::size_t i = 0; i < gang_order_scratch_.size(); ++i) {
    gang_order_scratch_[i] = i;
  }
  std::partial_sort(gang_order_scratch_.begin(),
                    gang_order_scratch_.begin() +
                        static_cast<std::ptrdiff_t>(width),
                    gang_order_scratch_.end(),
                    [this](std::size_t a, std::size_t b) {
                      return worker_free_at_[a] < worker_free_at_[b];
                    });
  gang_scratch_.assign(gang_order_scratch_.begin(),
                       gang_order_scratch_.begin() +
                           static_cast<std::ptrdiff_t>(width));
}

std::uint64_t SimulatedExecutor::submit(EvalFn fn, const JobSpec& spec) {
  if (spec.width == 0 || spec.width > worker_free_at_.size()) {
    throw std::invalid_argument("SimulatedExecutor: bad gang width");
  }
  const std::uint64_t id = next_id_++;
  const obs::DCounter tenant_busy = lifecycle_.admit(spec);

  EvalOutput base;
  try {
    base = fn();
  } catch (...) {
    base.failed = true;
    base.objective = 0.0;
    base.train_seconds = 1.0;
  }
  if (base.train_seconds <= 0.0) base.train_seconds = 1e-3;

  // Resolve the attempt chain eagerly: each attempt claims its gang, pays
  // the launch overhead, and either completes, crashes, or is killed at
  // its deadline; the lifecycle decides whether the next one runs.
  double t_ready = clock_;
  for (std::size_t attempt = 1;; ++attempt) {
    const FaultKind fault = injector_.draw(id, attempt);
    double duration = base.train_seconds;
    if (fault == FaultKind::kCrash) duration *= 0.5;
    if (fault == FaultKind::kHang) duration *= kHangFactor;
    if (fault == FaultKind::kSlow) duration *= injector_.config().slow_factor;

    lifecycle_.begin();
    const double limit = lifecycle_.limit(spec);
    const bool killed = duration > limit;
    const double consumed = std::min(duration, limit);
    Ending how = Ending::kSucceeded;
    if (killed) {
      how = Ending::kKilled;
    } else if (base.failed || fault == FaultKind::kCrash ||
               fault == FaultKind::kHang) {
      how = Ending::kFailed;
    }

    // Gang scheduling: claim the `width` earliest-free workers; the attempt
    // starts when the latest of them frees up (and not before t_ready), and
    // pays the launch overhead (idle from the utilization viewpoint) first.
    claim_gang(spec.width);
    const std::vector<std::size_t>& order = gang_scratch_;
    double gang_free = t_ready;
    for (std::size_t i = 0; i < spec.width; ++i) {
      gang_free = std::max(gang_free, worker_free_at_[order[i]]);
    }
    const double start = gang_free + job_overhead_;
    const double finish = start + consumed;
    // Per-tenant accounting: every attempt's gang occupancy is the
    // tenant's consumption, retries and kills included — quota
    // enforcement should see what a job *cost*, not what it produced.
    tenant_busy.add(consumed * static_cast<double>(spec.width));
    const char* status = attempt_status(fault, killed, base.failed);
    for (std::size_t i = 0; i < spec.width; ++i) {
      worker_free_at_[order[i]] = finish;
      busy_intervals_.push_back(BusyInterval{id, order[i], start, finish});
      pending_busy_.push_back(PendingBusy{start, finish});
      // Virtual-time trace: each gang worker's occupancy becomes one span
      // on its lane (plus the launch overhead as its own phase).
      const std::string lane = worker_lane(order[i]);
      if (job_overhead_ > 0.0) {
        obs::record_span("exec.launch", lane, gang_free, job_overhead_);
      }
      obs::record_span(spec.tag.empty() ? "exec.attempt" : spec.tag, lane,
                       start, consumed,
                       {{"job", std::to_string(id)},
                        {"attempt", std::to_string(attempt)},
                        {"status", status}});
    }

    EvalOutput out = how == Ending::kSucceeded ? base : EvalOutput{};
    out.train_seconds = consumed;
    Verdict verdict =
        lifecycle_.end(id, attempt, spec, how, std::move(out), consumed, finish);
    if (!verdict.retry) {
      events_.push(std::move(verdict.finished));
      break;
    }
    t_ready = finish + verdict.backoff;
  }
  return id;
}

void SimulatedExecutor::advance_busy_accounting(double old_clock) {
  double credited = 0.0;
  std::size_t i = 0;
  while (i < pending_busy_.size()) {
    const PendingBusy& p = pending_busy_[i];
    const double lo = std::max(p.start, old_clock);
    const double hi = std::min(p.finish, clock_);
    if (hi > lo) credited += hi - lo;
    if (p.finish <= clock_) {
      // Fully elapsed: retire it so the pending list stays proportional to
      // the in-flight gang width, not the whole campaign.
      pending_busy_[i] = pending_busy_.back();
      pending_busy_.pop_back();
    } else {
      ++i;
    }
  }
  if (credited > 0.0) lifecycle_.add_busy(credited);
}

std::vector<Finished> SimulatedExecutor::get_finished(bool block) {
  std::vector<Finished> out;
  if (events_.empty()) return out;

  if (!block && events_.top().finish_time > clock_) return out;

  // Advance to the next completion and drain everything finishing then.
  const double old_clock = clock_;
  const double t = std::max(clock_, events_.top().finish_time);
  clock_ = t;
  advance_busy_accounting(old_clock);
  while (!events_.empty() && events_.top().finish_time <= clock_) {
    out.push_back(events_.top());
    events_.pop();
  }
  return out;
}

Utilization SimulatedExecutor::utilization() const {
  // One code path with LiveExecutor: busy worker time is whatever this
  // executor has credited to the shared `exec.busy_seconds` obs counter
  // since construction (advance_busy_accounting clips intervals to the
  // clock exactly like the old query-time accounting did).
  Utilization u;
  u.busy_worker_seconds = lifecycle_.busy_seconds();
  u.elapsed_seconds = clock_;
  u.workers = worker_free_at_.size();
  return u;
}

void SimulatedExecutor::write_trace_csv(std::ostream& os) const {
  os << "job_id,worker,start,finish\n";
  for (const auto& interval : busy_intervals_) {
    os << interval.job_id << ',' << interval.worker << ',' << interval.start
       << ',' << interval.finish << '\n';
  }
}

namespace {

// v2 adds the elastic degraded/final_world output fields to event lines;
// v1 snapshots (pre-elastic releases) still load with those defaulted.
constexpr const char* kSimStateHeader = "sim-executor v2";
constexpr const char* kSimStateHeaderV1 = "sim-executor v1";

constexpr const char* kWhat = "SimulatedExecutor::load_state";

[[noreturn]] void bad_state(const std::string& detail) {
  state::fail(kWhat, detail);
}

}  // namespace

bool SimulatedExecutor::save_state(std::ostream& os) const {
  os.precision(17);
  os << kSimStateHeader << '\n';
  os << "clock " << clock_ << '\n';
  os << "next-id " << next_id_ << '\n';
  os << "workers ";
  state::write_vector(os, worker_free_at_);
  os << "\ndurations ";
  state::write_vector(os, lifecycle_.durations());
  os << '\n';
  os << "pending-busy " << pending_busy_.size() << '\n';
  for (const PendingBusy& p : pending_busy_) {
    os << "busy " << p.start << ' ' << p.finish << '\n';
  }
  // Drain a copy of the priority queue; order is irrelevant (re-heapified
  // on load) but a sorted dump keeps the file deterministic.
  auto events = events_;
  os << "events " << events.size() << '\n';
  while (!events.empty()) {
    const Finished& e = events.top();
    os << "event " << e.finish_time << ' ' << e.id << ' ' << e.attempts << ' '
       << e.output.objective << ' ' << e.output.train_seconds << ' '
       << (e.output.failed ? 1 : 0) << ' ' << (e.output.timed_out ? 1 : 0)
       << ' ' << (e.output.degraded ? 1 : 0) << ' ' << e.output.final_world
       << ' ' << state::encode_token(e.tag) << '\n';
    events.pop();
  }
  return true;
}

bool SimulatedExecutor::load_state(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) ||
      (line != kSimStateHeader && line != kSimStateHeaderV1)) {
    bad_state("bad header");
  }
  const bool v1 = line == kSimStateHeaderV1;
  std::string key;
  std::size_t n = 0;
  if (!(is >> key >> clock_) || key != "clock") bad_state("missing clock");
  if (!(is >> key >> next_id_) || key != "next-id") bad_state("missing next-id");
  if (!(is >> key >> n) || key != "workers") bad_state("missing workers");
  if (n != worker_free_at_.size()) {
    bad_state("snapshot has " + std::to_string(n) + " workers, executor has " +
              std::to_string(worker_free_at_.size()));
  }
  for (double& t : worker_free_at_) {
    if (!(is >> t)) bad_state("truncated worker free times");
  }
  state::expect_key(is, "durations", kWhat);
  lifecycle_.restore_durations(state::read_vector<double>(is, kWhat));
  pending_busy_.clear();
  for (std::size_t i = state::read_count(is, "pending-busy", kWhat); i > 0;
       --i) {
    PendingBusy p{};
    if (!(is >> key >> p.start >> p.finish) || key != "busy") {
      bad_state("truncated pending-busy");
    }
    pending_busy_.push_back(p);
  }
  events_ = decltype(events_)();
  for (std::size_t i = state::read_count(is, "events", kWhat); i > 0; --i) {
    Finished e;
    int failed = 0;
    int timed_out = 0;
    int degraded = 0;
    std::string tag;
    if (!(is >> key >> e.finish_time >> e.id >> e.attempts >>
          e.output.objective >> e.output.train_seconds >> failed >>
          timed_out) ||
        key != "event") {
      bad_state("truncated events");
    }
    if (!v1 && !(is >> degraded >> e.output.final_world)) {
      bad_state("truncated events");
    }
    if (!(is >> tag)) bad_state("truncated events");
    e.output.failed = failed != 0;
    e.output.timed_out = timed_out != 0;
    e.output.degraded = degraded != 0;
    e.tag = state::decode_token(tag);
    events_.push(std::move(e));
  }
  busy_intervals_.clear();  // resumed Gantt traces start at the resume point
  return true;
}

}  // namespace agebo::exec
