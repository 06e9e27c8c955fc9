// Workload `train`: one training evaluation, the unit a campaign is made of.
//
// Genomes drawn with nas::SearchSpace::random are trained through
// eval::TrainingEvaluator::evaluate on a Covertype-shaped synthetic split
// at bs1 = 256, lr1 = 0.01, each at n = 1, 2 and 4 in turn (capped at
// nproc). A round trains kRoundGenomes fresh genomes from the seeded
// GenomeStream (bench.hpp) at every n; rounds repeat until the time budget
// is spent, so a run averages over many architectures.
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "dp/data_parallel.hpp"
#include "eval/training_eval.hpp"
#include "nas/search_space.hpp"
#include "nn/adam.hpp"
#include "nn/kernels/pool.hpp"
#include "nn/loss.hpp"
#include "nn/trainer.hpp"
#include "obs/span.hpp"

namespace perfbench {
namespace {

using namespace agebo;

constexpr std::size_t kEpochs = 1;
constexpr double kScale = 0.02;  // ~11.6k rows, ~4.9k in the train split
constexpr std::size_t kRoundGenomes = 4;
// `quality` is the median best validation accuracy over the fits of the
// first kQualityRounds rounds (every run makes at least these), so it is
// the same on every run of a seed. Median, not mean: a few random
// architectures barely learn in one epoch and would swing a mean.
constexpr std::size_t kQualityRounds = 5;

struct TrainSetup {
  data::TrainValidTest splits;
  std::unique_ptr<eval::TrainingEvaluator> evaluator;
  nas::SearchSpace space;
};

/// Heap-allocated so the evaluator's references to the splits stay valid.
std::unique_ptr<TrainSetup> make_setup(std::uint64_t seed, bool quick) {
  auto s = std::make_unique<TrainSetup>();
  s->splits = covertype_split(seed, quick ? kScale / 4 : kScale);
  eval::TrainingEvalConfig cfg;
  cfg.epochs = quick ? 1 : kEpochs;
  cfg.seed = seed;
  s->evaluator = std::make_unique<eval::TrainingEvaluator>(
      s->splits.train, s->splits.valid, cfg);
  return s;
}

/// Rank-0 program spans of one fit, read from the trace rings.
struct FitSpans {
  double step = 0.0, allreduce = 0.0, bucket = 0.0;
  std::size_t steps = 0;
};

FitSpans take_fit_spans() {
  FitSpans f;
  for (const auto& e : obs::collect_trace_events()) {
    if (e.lane != "dp.replica.0") continue;
    if (e.name == "dp.step") {
      f.step += e.dur_us * 1e-6;
      ++f.steps;
    } else if (e.name == "dp.allreduce") {
      f.allreduce += e.dur_us * 1e-6;
    } else if (e.name == "dp.allreduce.bucket") {
      f.bucket += e.dur_us * 1e-6;
    }
  }
  obs::trace_reset();
  return f;
}

/// Per-n sums over the traced fits.
struct PerN {
  double fit_s = 0.0, flops = 0.0, step_s = 0.0, allreduce_s = 0.0,
         bucket_s = 0.0;
  std::size_t steps = 0;
};

/// Replays training steps of each genome at bs1 rows through GraphNet and
/// Adam directly, timing forward, backward and the optimizer apart.
void replay_steps(const TrainSetup& s, const std::vector<nas::Genome>& genomes,
                  double factor, Report& r) {
  const data::Dataset& train = s.splits.train;
  std::vector<std::size_t> order(train.n_rows);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  double fwd = 0.0, bwd = 0.0, opt = 0.0;
  std::size_t steps = 0;
  for (const nas::Genome& g : genomes) {
    Rng rng(7);
    nn::GraphNet net(
        s.space.to_graph_spec(g, train.n_features, train.n_classes), rng);
    nn::AdamConfig acfg;
    acfg.lr = 0.01;
    nn::Adam adam(net.params(), acfg);
    nn::Tensor x, dlogits;
    std::vector<int> y;
    const std::size_t bs = std::min<std::size_t>(256, train.n_rows);
    for (std::size_t i = 0; i < 12; ++i) {
      const std::size_t begin = (i * bs) % (train.n_rows - bs + 1);
      nn::batch_from(train, order, begin, begin + bs, x, y);
      const double t0 = now_s();
      const nn::Tensor& logits = net.forward(x);
      net.zero_grad();
      nn::softmax_cross_entropy(logits, y, dlogits);
      const double t1 = now_s();
      net.backward(dlogits);
      const double t2 = now_s();
      adam.step();
      const double t3 = now_s();
      if (i < 2) continue;  // warm-up: first steps size the buffers
      fwd += t1 - t0;
      bwd += t2 - t1;
      opt += t3 - t2;
      ++steps;
    }
  }
  const double per_step_ms = 1e3 * factor / static_cast<double>(steps);
  r.layer("nn.forward_ms", fwd * per_step_ms, "ms");
  r.layer("nn.backward_ms", bwd * per_step_ms, "ms");
  r.layer("nn.optim_ms", opt * per_step_ms, "ms");
}

/// Cost of one kernel thread-budget lookup at the default budget (nothing
/// in this process calls set_max_threads), as every GEMM dispatch pays it.
double budget_lookup_us() {
  constexpr int kCalls = 20000;
  std::size_t sink = 0;
  const double t0 = now_s();
  for (int i = 0; i < kCalls; ++i) sink += nn::kernels::max_threads();
  const double dt = now_s() - t0;
  return sink == 0 ? 0.0 : 1e6 * dt / kCalls;
}

}  // namespace

void run_train(const Options& opt, Report& r, Slices& s) {
  std::unique_ptr<TrainSetup> owner;
  const auto [setup_raw, setup_norm] = timed_setup(
      7, 1, [&] { owner = make_setup(opt.seed, opt.quick); });
  const TrainSetup& setup = *owner;

  std::vector<std::size_t> ns;
  for (std::size_t n : {1, 2, 4}) ns.push_back(std::min(n, host_threads()));
  const std::size_t epochs = opt.quick ? 1 : kEpochs;
  const double samples_per_fit =
      static_cast<double>(setup.splits.train.n_rows * epochs);
  GenomeStream stream(setup.splits.train, opt.seed);

  std::vector<nas::Genome> first_round;
  std::vector<double> first_objective, quality_objectives;
  std::size_t fresh_rounds = 0;
  Samples latency;
  std::map<std::size_t, Samples> latency_by_n;
  double samples = 0.0;
  std::size_t evals = 0, failed = 0;

  // Under --trace 1 every round is run twice, untraced then traced, so the
  // tracing overhead compares identical work.
  obs::Counter flops = obs::Registry::global().counter("kernels.flops");
  std::map<std::size_t, PerN> per_n;
  ModuleTimes modules;
  double traced_raw = 0.0, untraced_raw = 0.0;
  double flops_round1 = 0.0;
  std::size_t traced_fits = 0;
  double bytes = 0.0, reduce_steps = 0.0;

  const double t_start = now_s();
  std::vector<nas::Genome> genomes;
  std::vector<double> objectives;
  for (std::size_t round = 0;; ++round) {
    const bool traced = opt.trace && round % 2 == 1;
    if (!traced) {
      ++fresh_rounds;
      genomes.clear();
      for (std::size_t i = 0; i < kRoundGenomes; ++i) {
        genomes.push_back(stream.next());
      }
    }
    std::vector<double> round_objectives;
    const std::size_t first_slice = s.count();
    s.open();
    obs::trace_reset();
    for (const nas::Genome& g : genomes) {
      for (std::size_t n : ns) {
        eval::EvalRequest req{eval::ModelConfig{g, eval::default_hparams(n)}};
        const auto snap0 =
            traced ? obs::Registry::global().snapshot() : obs::Snapshot{};
        const double f0 = static_cast<double>(flops.total());
        const double t0 = now_s();
        const exec::EvalOutput out = setup.evaluator->evaluate(req);
        const double dt = now_s() - t0;
        const double df = static_cast<double>(flops.total()) - f0;
        latency.add(s, dt);
        latency_by_n[n].add(s, dt);
        ++evals;
        samples += samples_per_fit;
        if (out.failed) ++failed;
        round_objectives.push_back(out.objective);
        if (round == 0) flops_round1 += df;
        if (traced) {
          const double b0 = now_s();
          const FitSpans f = take_fit_spans();
          const auto snap1 = obs::Registry::global().snapshot();
          PerN& pn = per_n[n];
          pn.fit_s += out.train_seconds;
          pn.flops += df;
          pn.step_s += f.step;
          pn.allreduce_s += f.allreduce;
          pn.bucket_s += f.bucket;
          pn.steps += f.steps;
          if (n > 1) {
            bytes += value_delta(snap1, snap0, "dp.allreduce_bytes");
            reduce_steps += static_cast<double>(f.steps);
          }
          ++traced_fits;
          modules.add("eval", dt - out.train_seconds);
          modules.add("dp", out.train_seconds - f.step + f.allreduce);
          modules.add("nn", f.step - f.allreduce);
          modules.add("bench", now_s() - b0);
        }
        s.tick();
      }
    }
    s.close();
    const double round_raw = s.raw_total(first_slice);
    if (traced) {
      traced_raw += round_raw;
      r.check(round_objectives == objectives,
              "train: traced repeat of round " + std::to_string(round - 1) +
                  " changed an accuracy");
    } else {
      untraced_raw += round_raw;
      objectives = round_objectives;
      if (fresh_rounds <= kQualityRounds) {
        quality_objectives.insert(quality_objectives.end(),
                                  round_objectives.begin(),
                                  round_objectives.end());
      }
    }
    if (round == 0) {
      first_round = genomes;
      first_objective = round_objectives;
    }
    const bool more =
        !opt.quick && (now_s() - t_start < opt.seconds ||
                       fresh_rounds < kQualityRounds);
    if (!more && (!opt.trace || traced)) break;
  }

  // --- Output checks (untimed). A direct DataParallelTrainer fit of every
  // round-one fit at n > 1, and of its first fit, reproduces the
  // evaluator's accuracy bit for bit, and replicas end in lockstep.
  const auto& train = setup.splits.train;
  for (std::size_t gi = 0; gi < first_round.size(); ++gi) {
    for (std::size_t k = 0; k < ns.size(); ++k) {
      const std::size_t n = ns[k];
      if (n == 1 && gi != 0) continue;
      dp::DataParallelTrainer trainer(
          setup.space.to_graph_spec(first_round[gi], train.n_features,
                                    train.n_classes),
          eval::to_dp_config(eval::default_hparams(n), epochs, opt.seed));
      const auto res = trainer.fit(train, setup.splits.valid);
      const std::string what = "train: genome " + std::to_string(gi) +
                               " at n=" + std::to_string(n);
      r.check(res.best_valid_accuracy == first_objective[gi * ns.size() + k],
              what + ": direct fit differs from TrainingEvaluator::evaluate");
      if (n > 1) {
        r.check(trainer.max_replica_divergence() == 0.0f,
                what + ": replicas diverged");
      }
    }
  }
  r.ops(evals, failed);

  // --- End-to-end metrics.
  // latency_p50_ms is the mean over n of each n's median evaluate time:
  // evaluations at n = 1, 2 and 4 form three clusters of different cost,
  // and the median of all of them falls in whichever cluster the seed's
  // genomes tip it to (quartiles over median 12% over ten seeds).
  const std::vector<double> lat = latency.normalized(s);
  double p50 = 0.0, p50_raw = 0.0;
  for (const auto& [n, samples] : latency_by_n) {
    p50 += median(samples.normalized(s)) / latency_by_n.size();
    p50_raw += median(samples.raw()) / latency_by_n.size();
  }
  r.e2e("setup_s", setup_norm, "s");
  r.layer("host.raw.setup_s", setup_raw, "s");
  const double quality = median(quality_objectives);
  r.e2e("throughput", samples / s.norm_total(), "1/s");
  r.e2e("latency_p50_ms", 1e3 * p50, "ms");
  r.layer("latency.p90_ms", 1e3 * quantile(lat, 0.9), "ms");
  r.e2e("quality", quality, "ratio");
  r.layer("latency.samples", static_cast<double>(latency.size()), "count");
  r.layer("host.raw.throughput", samples / s.raw_total(), "1/s");
  r.layer("host.raw.latency_p50_ms", 1e3 * p50_raw, "ms");
  r.layer("host.raw.latency_p90_ms", 1e3 * quantile(latency.raw(), 0.9),
          "ms");
  r.layer("kernels.flops_per_sample",
          flops_round1 / (samples_per_fit *
                          static_cast<double>(first_objective.size())),
          "flop");
  r.note("inputs: genomes " + genome_fingerprint(first_round));
  r.note("train: " + std::to_string(evals) + " evaluations of " +
         std::to_string(evals / ns.size()) + " genome draws at n in {1,2,4}");

  if (!opt.trace) return;
  // --- Per-layer metrics from the traced rounds.
  double fit_all = 0.0, flops_all = 0.0;
  for (const auto& [n, pn] : per_n) {
    fit_all += pn.fit_s;
    flops_all += pn.flops;
  }
  r.layer("kernels.gflops", fit_all > 0.0 ? 1e-9 * flops_all / fit_all : 0.0,
          "GFLOP/s");
  r.layer("kernels.budget_lookup_us", budget_lookup_us(), "us");
  replay_steps(setup, first_round, s.run_factor(), r);
  auto rate = [&](std::size_t n) {
    const auto it = per_n.find(n);
    return it == per_n.end() || it->second.fit_s <= 0.0
               ? 0.0
               : it->second.flops / it->second.fit_s;
  };
  double reduce_s = 0.0;
  for (std::size_t n : {1, 2, 4}) {
    const auto it = per_n.find(n);
    const PerN pn = it == per_n.end() ? PerN{} : it->second;
    const std::string sfx = ".n" + std::to_string(n);
    r.layer("dp.step_ms" + sfx,
            pn.steps ? 1e3 * pn.step_s / static_cast<double>(pn.steps) : 0.0,
            "ms");
    if (n == 1) continue;
    r.layer("dp.wait_share" + sfx,
            pn.step_s > 0.0 ? (pn.allreduce_s - pn.bucket_s) / pn.step_s : 0.0,
            "ratio");
    r.layer("dp.scaling_eff" + sfx,
            rate(1) > 0.0 ? rate(n) / rate(1) / static_cast<double>(n) : 0.0,
            "ratio");
    reduce_s += pn.bucket_s;
  }
  r.layer("dp.reduce_ms", reduce_steps > 0 ? 1e3 * reduce_s / reduce_steps : 0.0,
          "ms");
  r.layer("dp.allreduce_bytes_per_step",
          reduce_steps > 0 ? bytes / reduce_steps : 0.0, "bytes");
  r.layer("eval.overhead_ms",
          traced_fits ? 1e3 * modules.get("eval") / traced_fits : 0.0,
          "ms");
  r.layer("trace.overhead_pct",
          untraced_raw > 0.0 ? 100.0 * (traced_raw / untraced_raw - 1.0)
                              : 0.0,
          "%");
  report_modules(modules, traced_raw, r);
}

}  // namespace perfbench
