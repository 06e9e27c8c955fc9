// Workload `campaign`: the paper's AgEBO campaign, simulated.
//
// core::agebo_config (kappa = 0.001, centralized BO) on a SurrogateEvaluator
// (Covertype profile) and a SimulatedExecutor (128 workers, 90 s launch
// overhead, 180-minute virtual budget). The benchmark drives the search
// through the AgeboSearch pump API (start/step) in the same loop as
// AgeboSearch::run(), and checks on the first campaign that the pump's
// history equals run()'s. Campaign k of a run uses search seed
// --seed + 1000 k; campaigns repeat until the time budget is spent, and the
// first kQualityCampaigns always run, so `quality` is the same on every run
// of a seed. All wall time is the manager's: bo forest refits, nas
// mutation, the core pump, the exec simulator and the eval surrogate.
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "core/search.hpp"
#include "core/variants.hpp"
#include "eval/surrogate.hpp"
#include "exec/sim_executor.hpp"

namespace perfbench {
namespace {

using namespace agebo;

constexpr std::size_t kWorkers = 128;
constexpr double kLaunchOverheadS = 90.0;
constexpr double kBudgetMinutes = 180.0;
constexpr std::size_t kQualityCampaigns = 2;

core::SearchConfig campaign_config(std::uint64_t seed, bool quick) {
  core::SearchConfig cfg = core::agebo_config(seed, 0.001);
  cfg.wall_time_seconds = (quick ? 20.0 : kBudgetMinutes) * 60.0;
  return cfg;
}

/// Decorating Evaluator: times every surrogate evaluation.
class TimedEvaluator final : public eval::Evaluator {
 public:
  explicit TimedEvaluator(eval::Evaluator& inner) : inner_(inner) {}
  exec::EvalOutput evaluate(const eval::EvalRequest& request) override {
    const double t0 = now_s();
    exec::EvalOutput out = inner_.evaluate(request);
    seconds += now_s() - t0;
    ++calls;
    return out;
  }
  double seconds = 0.0;
  std::size_t calls = 0;

 private:
  eval::Evaluator& inner_;
};

/// Decorating Executor: times submit (which runs the evaluation closure in
/// the simulator) and get_finished.
class TimedExecutor final : public exec::Executor {
 public:
  explicit TimedExecutor(exec::Executor& inner) : inner_(inner) {}
  std::uint64_t submit(exec::EvalFn fn, const exec::JobSpec& spec) override {
    const double t0 = now_s();
    const std::uint64_t id = inner_.submit(std::move(fn), spec);
    submit_s += now_s() - t0;
    ++submits;
    return id;
  }
  std::vector<exec::Finished> get_finished(bool block) override {
    const double t0 = now_s();
    auto out = inner_.get_finished(block);
    get_finished_s += now_s() - t0;
    ++gets;
    return out;
  }
  double now() const override { return inner_.now(); }
  std::size_t num_workers() const override { return inner_.num_workers(); }
  std::size_t num_in_flight() const override { return inner_.num_in_flight(); }
  exec::Utilization utilization() const override {
    return inner_.utilization();
  }
  double submit_s = 0.0, get_finished_s = 0.0;
  std::size_t submits = 0, gets = 0;

 private:
  exec::Executor& inner_;
};

/// One campaign's objects, built in the set-up phase.
struct Campaign {
  Campaign(const nas::SearchSpace& space, std::uint64_t seed, bool quick)
      : surrogate(space, eval::covertype_profile()),
        sim(kWorkers, kLaunchOverheadS),
        search(space, campaign_config(seed, quick)) {}
  eval::SurrogateEvaluator surrogate;
  exec::SimulatedExecutor sim;
  core::AgeboSearch search;
};

/// AgeboSearch::run()'s loop, driven through the pump API. Appends the
/// wall time of every start/step call to `steps`.
core::SearchResult pump(core::AgeboSearch& search, eval::Evaluator& evaluator,
                        exec::Executor& executor, Slices& s, Samples& steps) {
  std::unordered_map<std::uint64_t, std::uint64_t> job_to_ticket;
  auto submit = [&](const std::vector<core::EvalTicket>& tickets) {
    for (const auto& t : tickets) {
      exec::JobSpec spec;
      spec.width = t.width;
      spec.timeout_seconds = t.timeout_seconds;
      spec.max_retries = t.max_retries;
      spec.tag = t.tag;
      eval::Evaluator* ev = &evaluator;
      const eval::ModelConfig config = t.config;
      const double fidelity = t.fidelity;
      job_to_ticket[executor.submit(
          [ev, config, fidelity] {
            return ev->evaluate(eval::EvalRequest{config, fidelity});
          },
          spec)] = t.ticket;
    }
  };
  double t0 = now_s();
  auto tickets = search.start(executor.num_workers());
  steps.add(s, now_s() - t0);
  submit(tickets);
  const double wall = search.wall_time_seconds();
  while (executor.now() < wall) {
    const auto finished = executor.get_finished(true);
    if (finished.empty()) break;
    std::vector<core::EvalDone> done;
    done.reserve(finished.size());
    for (const auto& f : finished) {
      core::EvalDone d;
      d.ticket = job_to_ticket.at(f.id);
      job_to_ticket.erase(f.id);
      d.finish_time = f.finish_time;
      d.objective = f.output.objective;
      d.train_seconds = f.output.train_seconds;
      d.failed = f.output.failed;
      d.timed_out = f.output.timed_out;
      d.attempts = f.attempts;
      d.degraded = f.output.degraded;
      d.final_world = f.output.final_world;
      done.push_back(d);
    }
    t0 = now_s();
    const auto next = search.step(done, executor.now());
    steps.add(s, now_s() - t0);
    if (executor.now() >= wall) break;
    submit(next);
    s.tick();
  }
  core::SearchResult out = search.result();
  out.utilization = executor.utilization();
  return out;
}

bool same_history(const core::SearchResult& a, const core::SearchResult& b) {
  if (a.history.size() != b.history.size()) return false;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const auto& x = a.history[i];
    const auto& y = b.history[i];
    if (x.objective != y.objective || x.finish_time != y.finish_time ||
        x.failed != y.failed || x.config.genome != y.config.genome ||
        x.config.hparams != y.config.hparams) {
      return false;
    }
  }
  return a.best_objective == b.best_objective;
}

}  // namespace

void run_campaign(const Options& opt, Report& r, Slices& s) {
  const nas::SearchSpace space;
  auto seed_of = [&](std::size_t k) { return opt.seed + 1000 * k; };
  std::unique_ptr<Campaign> next;
  // One construction takes about 0.1 ms, so each timed rep builds
  // kSetupBatch of them and setup_s is the time of one.
  constexpr std::size_t kSetupBatch = 50;
  auto [setup_raw, setup_norm] = timed_setup(7, 1, [&] {
    for (std::size_t i = 0; i < kSetupBatch; ++i) {
      next = std::make_unique<Campaign>(space, seed_of(0), opt.quick);
    }
  });
  setup_raw /= kSetupBatch;
  setup_norm /= kSetupBatch;

  Samples step_s;
  std::vector<double> best;
  std::size_t evals = 0, failed = 0;
  double first_util = 0.0;
  std::size_t first_evals = 0;
  core::SearchResult first_result, untraced;
  // Trace state: every campaign runs twice under --trace 1, untraced then
  // traced through the decorators, so the overhead compares equal work.
  ModuleTimes modules;
  double traced_raw = 0.0, untraced_raw = 0.0, untraced_norm = 0.0;
  double submit_s = 0.0, get_s = 0.0, eval_s = 0.0;
  std::size_t submits = 0, gets = 0, eval_calls = 0;
  const obs::Snapshot before = obs::Registry::global().snapshot();

  const double t_start = now_s();
  for (std::size_t k = 0;; ++k) {
    for (int pass = 0; pass < (opt.trace ? 2 : 1); ++pass) {
      const bool traced = pass == 1;
      std::unique_ptr<Campaign> c =
          next ? std::move(next)
               : std::make_unique<Campaign>(space, seed_of(k), opt.quick);
      const std::size_t first_slice = s.count();
      s.open();
      core::SearchResult res;
      if (traced) {
        TimedEvaluator tev(c->surrogate);
        TimedExecutor tex(c->sim);
        const auto snap0 = obs::Registry::global().snapshot();
        Samples traced_steps;
        res = pump(c->search, tev, tex, s, traced_steps);
        const auto snap1 = obs::Registry::global().snapshot();
        const double ask = hist_delta(snap1, snap0, "bo.ask_seconds").sum;
        const double tell = hist_delta(snap1, snap0, "bo.tell_seconds").sum;
        const double mut = hist_delta(snap1, snap0, "age.mutate_seconds").sum;
        double steps = 0.0;
        for (double v : traced_steps.raw()) steps += v;
        modules.add("bo", ask + tell);
        modules.add("nas", mut);
        modules.add("core", steps - ask - tell - mut);
        modules.add("exec", tex.submit_s - tev.seconds + tex.get_finished_s);
        modules.add("eval", tev.seconds);
        submit_s += tex.submit_s - tev.seconds;
        get_s += tex.get_finished_s;
        submits += tex.submits;
        gets += tex.gets;
        eval_s += tev.seconds;
        eval_calls += tev.calls;
      } else {
        res = pump(c->search, c->surrogate, c->sim, s, step_s);
      }
      s.close();
      const double raw = s.raw_total(first_slice);
      (traced ? traced_raw : untraced_raw) += raw;
      if (!traced) untraced_norm += s.norm_total(first_slice);
      if (traced) {
        r.check(same_history(res, untraced),
                "campaign: traced repeat of seed " + std::to_string(seed_of(k)) +
                    " differs from its untraced run");
        continue;
      }
      untraced = res;
      evals += res.history.size();
      for (const auto& h : res.history) failed += h.failed ? 1 : 0;
      if (k < kQualityCampaigns) best.push_back(res.best_objective);
      if (k == 0) {
        first_result = res;
        first_util = res.utilization.fraction();
        first_evals = res.history.size();
      }
    }
    const bool more = !opt.quick && now_s() - t_start < opt.seconds;
    if (!more && k + 1 >= (opt.quick ? 1 : kQualityCampaigns)) break;
  }
  const obs::Snapshot after = obs::Registry::global().snapshot();

  // --- Output checks (untimed): no failed evaluation, and the pump-driven
  // history equals AgeboSearch::run() on the first campaign seed.
  r.check(failed == 0, "campaign: " + std::to_string(failed) +
                           " evaluations failed");
  {
    eval::SurrogateEvaluator surrogate(space, eval::covertype_profile());
    exec::SimulatedExecutor sim(kWorkers, kLaunchOverheadS);
    core::AgeboSearch search(space, surrogate, sim,
                             campaign_config(seed_of(0), opt.quick));
    r.check(same_history(search.run(), first_result),
            "campaign: pump-driven history differs from AgeboSearch::run()");
  }
  r.ops(evals, failed);

  // --- End-to-end metrics.
  const std::vector<double> lat = step_s.normalized(s);
  double quality = 0.0;
  for (double b : best) quality += b;
  quality /= static_cast<double>(best.size());
  r.e2e("setup_s", setup_norm, "s");
  r.e2e("throughput", static_cast<double>(evals) / untraced_norm, "1/s");
  r.e2e("latency_p50_ms", 1e3 * median(lat), "ms");
  r.layer("latency.p90_ms", 1e3 * quantile(lat, 0.9), "ms");
  r.e2e("quality", quality, "ratio");
  r.layer("latency.samples", static_cast<double>(step_s.size()), "count");
  r.layer("host.raw.setup_s", setup_raw, "s");
  r.layer("host.raw.throughput", static_cast<double>(evals) / untraced_raw,
          "1/s");
  r.layer("host.raw.latency_p50_ms", 1e3 * median(step_s.raw()), "ms");
  r.layer("host.raw.latency_p90_ms", 1e3 * quantile(step_s.raw(), 0.9), "ms");
  r.layer("exec.utilization", first_util, "ratio");
  r.layer("campaign.evals", static_cast<double>(first_evals), "count");
  r.note("inputs: campaign seeds " + std::to_string(seed_of(0)) + "," +
         std::to_string(seed_of(1)));
  r.note("campaign: " + std::to_string(best.size()) + "+ campaigns, " +
         std::to_string(evals) + " evaluations; seed " +
         std::to_string(seed_of(0)) + " made " + std::to_string(first_evals) +
         " evaluations, best " + std::to_string(first_result.best_objective) +
         ", utilization " + std::to_string(first_util));

  if (!opt.trace) return;
  // --- Per-layer metrics.
  const double f = s.run_factor();
  const auto ask = hist_delta(after, before, "bo.ask_seconds");
  const auto tell = hist_delta(after, before, "bo.tell_seconds");
  const auto mutate = hist_delta(after, before, "age.mutate_seconds");
  r.layer("bo.ask_ms_p50", 1e3 * f * ask.quantile(0.5), "ms");
  r.layer("bo.ask_ms_p90", 1e3 * f * ask.quantile(0.9), "ms");
  r.layer("bo.tell_ms_p50", 1e3 * f * tell.quantile(0.5), "ms");
  r.layer("nas.mutate_us_p50", 1e6 * f * mutate.quantile(0.5), "us");
  r.layer("nas.mutate_us_mean", 1e6 * f * mutate.mean(), "us");
  r.layer("exec.submit_us", submits ? 1e6 * f * submit_s / submits : 0.0, "us");
  r.layer("exec.get_finished_us", gets ? 1e6 * f * get_s / gets : 0.0, "us");
  r.layer("eval.surrogate_us",
          eval_calls ? 1e6 * f * eval_s / eval_calls : 0.0, "us");
  const double step_total =
      modules.get("bo") + modules.get("nas") + modules.get("core");
  r.layer("core.self_share",
          step_total > 0.0 ? modules.get("core") / step_total : 0.0,
          "ratio");
  r.layer("trace.overhead_pct",
          untraced_raw > 0.0 ? 100.0 * (traced_raw / untraced_raw - 1.0) : 0.0,
          "%");
  report_modules(modules, traced_raw, r);
}

}  // namespace perfbench
