#include "bench.hpp"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "data/scaler.hpp"
#include "data/synthetic.hpp"
#include "nn/graph_net.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

namespace {

// Probe work per thread: kRounds rounds, each kFmaReps multiply-add passes
// over a 2 KiB array and one read of a 4 MiB buffer (past L2, so the probe
// feels the shared cache and memory bandwidth that co-tenants contend for,
// as the workload's larger working sets do). The threads work
// independently and join once at the end, so a probe takes as long as its
// slowest thread: it slows with slower or shared cores and with a vCPU
// that is preempted. (A variant that joined after every round slowed about
// 3x when the host was loaded while the train workload slowed 1.6x; a
// one-thread probe slowed 1.1x. This one slowed 1.9x.) About 10 ms per
// thread on the defining host.
constexpr std::size_t kRounds = 30;
constexpr std::size_t kFmaLen = 512;
constexpr std::size_t kFmaReps = 1000;
constexpr std::size_t kStreamLen = (4u << 20) / sizeof(float);

struct ProbeBuffers {
  std::vector<float> fma = std::vector<float>(kFmaLen, 1.0f);
  std::vector<float> stream = std::vector<float>(kStreamLen, 1.0f);
  volatile float sink = 0.0f;  // keeps the work observable
};

void probe_work(ProbeBuffers& b) {
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t r = 0; r < kFmaReps; ++r) {
      for (std::size_t i = 0; i < kFmaLen; ++i) {
        b.fma[i] = b.fma[i] * 0.999f + 0.001f;
      }
    }
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
    for (std::size_t i = 0; i < kStreamLen; i += 4) {
      s0 += b.stream[i];
      s1 += b.stream[i + 1];
      s2 += b.stream[i + 2];
      s3 += b.stream[i + 3];
    }
    b.sink = b.fma[0] + s0 + s1 + s2 + s3;
  }
}

/// Persistent team of probe threads (one fewer than its width; the caller
/// is the last), joined when the process exits. run(job) calls job(t) on
/// every member t at once and returns when all of them have returned.
class Team {
 public:
  explicit Team(std::size_t threads) : width_(threads) {
    for (std::size_t t = 1; t < threads; ++t) {
      workers_.emplace_back([this, t] { loop(t); });
    }
  }
  ~Team() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    start_.notify_all();
    for (auto& w : workers_) w.join();
  }
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  std::size_t width() const { return width_; }

  void run(const std::function<void(std::size_t)>& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      ++generation_;
      pending_ = workers_.size();
    }
    start_.notify_all();
    job(0);
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  void loop(std::size_t t) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        start_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      (*job)(t);
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_.notify_one();
    }
  }

  std::size_t width_;
  std::mutex mu_;
  std::condition_variable start_, done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: started after the state above
};

/// One probe width's team and per-thread buffers.
struct Probe {
  explicit Probe(std::size_t threads) : bufs(threads), team(threads) {}
  std::vector<ProbeBuffers> bufs;
  Team team;  // after bufs: its threads stop before the buffers go
};

// Fork-join probe: kJoins collectives in a row, each splitting
// host_threads() chunks of kChunkReps multiply-add passes (about 0.1 ms
// each) over a persistent team the way the program's kernel pool splits a
// GEMM: the caller and the woken helpers claim chunks from an atomic
// counter, and the caller returns when every helper has checked in. About
// 1 ms in all, like one predict_batch of 256 rows.
constexpr std::size_t kJoins = 8;
constexpr std::size_t kChunkReps = 300;

struct Lane {
  std::vector<float> fma = std::vector<float>(kFmaLen, 1.0f);
  volatile float sink = 0.0f;
};

}  // namespace

double run_probe_ms(std::size_t threads) {
  static std::map<std::size_t, std::unique_ptr<Probe>> probes;
  auto& p = probes[std::max<std::size_t>(1, threads)];
  const std::function<void(std::size_t)> job = [&](std::size_t t) {
    probe_work(p->bufs[t]);
  };
  if (!p) {
    p = std::make_unique<Probe>(std::max<std::size_t>(1, threads));
    p->team.run(job);  // warm-up: thread start, first touch of the buffers
  }
  const double t0 = now_s();
  p->team.run(job);
  return (now_s() - t0) * 1e3;
}

double run_forkjoin_probe_ms() {
  static std::vector<Lane> lanes(host_threads());
  static Team team(host_threads());  // after lanes: stops first
  std::atomic<std::size_t> next{0};
  const std::function<void(std::size_t)> job = [&](std::size_t t) {
    auto& f = lanes[t].fma;
    while (next.fetch_add(1, std::memory_order_relaxed) < team.width()) {
      for (std::size_t r = 0; r < kChunkReps; ++r) {
        for (std::size_t i = 0; i < kFmaLen; ++i) {
          f[i] = f[i] * 0.999f + 0.001f;
        }
      }
      lanes[t].sink = f[0];
    }
  };
  const double t0 = now_s();
  for (std::size_t j = 0; j < kJoins; ++j) {
    next.store(0, std::memory_order_relaxed);
    team.run(job);
  }
  return (now_s() - t0) * 1e3;
}

std::size_t host_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// --- Slices ------------------------------------------------------------------

double Slices::probe() {
  const double ms = run_probe_ms(threads_);
  probes_ms_.push_back(ms);
  return ms;
}

void Slices::open() {
  probe();
  open_ = true;
  t0_ = now_s();
}

void Slices::finish() {
  const double dt = now_s() - t0_;
  // Probe for about kProbeShare of the slice's length (at least once), so
  // probes sample the host for a fixed share of the run whatever the
  // slice length.
  const double last_ms = probes_ms_.empty() ? kRefProbeMs : probes_ms_.back();
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(kProbeShare * dt * 1e3 / last_ms)));
  raw_.push_back(dt);
  first_after_.push_back(probes_ms_.size());
  for (std::size_t i = 0; i < n; ++i) probe();
  open_ = false;
}

bool Slices::tick() {
  if (!open_ || now_s() - t0_ < target_s_) return false;
  finish();
  // The closing probe doubles as the next slice's opening probe.
  open_ = true;
  t0_ = now_s();
  return true;
}

void Slices::close() {
  if (open_) finish();
}

double Slices::slice_probe_ms(std::size_t i) const {
  const std::size_t mid = first_after_[i];
  const std::size_t lo = mid >= kProbeWindow / 2 ? mid - kProbeWindow / 2 : 0;
  const std::size_t hi = std::min(probes_ms_.size(), lo + kProbeWindow);
  return median(std::vector<double>(probes_ms_.begin() + lo,
                                    probes_ms_.begin() + hi));
}

double Slices::run_factor() const {
  return probes_ms_.empty() ? 1.0 : kRefProbeMs / median(probes_ms_);
}

double Slices::raw_total(std::size_t first, std::size_t last) const {
  double s = 0.0;
  for (std::size_t i = first; i < std::min(last, raw_.size()); ++i) {
    s += raw_[i];
  }
  return s;
}

double Slices::norm_total(std::size_t first, std::size_t last) const {
  double s = 0.0;
  for (std::size_t i = first; i < std::min(last, raw_.size()); ++i) {
    s += raw_[i] * factor(i);
  }
  return s;
}

std::vector<double> Samples::normalized(const Slices& s) const {
  std::vector<double> out(raw_.size());
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    out[i] = raw_[i] * s.factor(slice_[i]);
  }
  return out;
}

// --- Report ----------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
}

namespace {

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_num(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

// Every per-layer metric of BENCHMARK.json with its unit. A workload that
// bypasses a layer reports it as 0: no work was done there.
const std::vector<std::pair<const char*, const char*>>& per_layer_units() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"kernels.gflops", "GFLOP/s"},
      {"kernels.flops_per_sample", "flop"},
      {"kernels.budget_lookup_us", "us"},
      {"nn.forward_ms", "ms"},
      {"nn.backward_ms", "ms"},
      {"nn.optim_ms", "ms"},
      {"dp.step_ms.n1", "ms"},
      {"dp.step_ms.n2", "ms"},
      {"dp.step_ms.n4", "ms"},
      {"dp.reduce_ms", "ms"},
      {"dp.wait_share.n2", "ratio"},
      {"dp.wait_share.n4", "ratio"},
      {"dp.allreduce_bytes_per_step", "bytes"},
      {"dp.scaling_eff.n2", "ratio"},
      {"dp.scaling_eff.n4", "ratio"},
      {"eval.overhead_ms", "ms"},
      {"eval.surrogate_us", "us"},
      {"serve.fp32_rows_per_s", "1/s"},
      {"serve.int8_rows_per_s", "1/s"},
      {"serve.int8_speedup", "ratio"},
      {"serve.row_us_p50", "us"},
      {"serve.queue_wait_us_p50", "us"},
      {"serve.queue_wait_us_p90", "us"},
      {"serve.batch_size_mean", "rows"},
      {"serve.handoff_us_p50", "us"},
      {"serve.latency_us_p99", "us"},
      {"serve.quantize_s", "s"},
      {"serve.engine_build_s", "s"},
      {"bo.ask_ms_p50", "ms"},
      {"bo.ask_ms_p90", "ms"},
      {"bo.tell_ms_p50", "ms"},
      {"nas.mutate_us_p50", "us"},
      {"nas.mutate_us_mean", "us"},
      {"exec.submit_us", "us"},
      {"exec.get_finished_us", "us"},
      {"core.self_share", "ratio"},
      {"exec.utilization", "ratio"},
      {"campaign.evals", "count"},
      {"host.probe_ms", "ms"},
      {"host.probe_max_over_min", "ratio"},
      {"host.raw.setup_s", "s"},
      {"host.raw.throughput", "1/s"},
      {"host.raw.latency_p50_ms", "ms"},
      {"host.raw.latency_p90_ms", "ms"},
      {"latency.samples", "count"},
      {"latency.p90_ms", "ms"},
      {"host.forkjoin_probe_ms", "ms"},
      {"host.loop_probe_ms", "ms"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_pct", "%"},
      {"self.nn", "ratio"},
      {"self.dp", "ratio"},
      {"self.eval", "ratio"},
      {"self.serve", "ratio"},
      {"self.bo", "ratio"},
      {"self.nas", "ratio"},
      {"self.exec", "ratio"},
      {"self.core", "ratio"},
      {"self.bench", "ratio"},
  };
  return units;
}

}  // namespace

void Report::print(bool trace, const std::string& host_json,
                   const Slices* slices) const {
  std::map<std::string, Metric> layer = layer_;
  if (trace) {
    for (const auto& [name, unit] : per_layer_units()) {
      layer.try_emplace(name, Metric{0.0, unit});
    }
  }
  for (const auto& n : notes_) std::printf("note: %s\n", n.c_str());
  for (const auto& f : failures_) std::printf("FAILED CHECK: %s\n", f.c_str());
  std::printf("host: %s\n", host_json.c_str());
  if (slices != nullptr) {
    std::string rows = "[";
    for (std::size_t i = 0; i < slices->count(); ++i) {
      if (i > 0) rows += ", ";
      rows += "{\"raw_s\": " + json_num(slices->raw(i)) +
              ", \"probe_ms\": " + json_num(slices->slice_probe_ms(i)) +
              ", \"first_probe_after\": " +
              std::to_string(slices->first_probe_after(i)) +
              ", \"norm_s\": " +
              json_num(slices->raw(i) * slices->factor(i)) + "}";
    }
    std::printf("slices: %s]\n", rows.c_str());
    std::string probes = "[";
    for (std::size_t i = 0; i < slices->probes_ms().size(); ++i) {
      if (i > 0) probes += ", ";
      probes += json_num(slices->probes_ms()[i]);
    }
    std::printf("probes_ms: %s]\n", probes.c_str());
  }
  // The other family goes on its own line for humans; the last line is the
  // machine-read result.
  std::printf("%s: %s\n", trace ? "end_to_end" : "per_layer",
              metrics_json(trace ? e2e_ : layer).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_),
      metrics_json(trace ? layer : e2e_).c_str());
  std::fflush(stdout);
}

// --- Module accounting ---------------------------------------------------------

double ModuleTimes::total() const {
  double s = 0.0;
  for (const auto& [_, v] : t_) s += v;
  return s;
}

const std::vector<std::string>& module_names() {
  static const std::vector<std::string> names = {
      "nn", "dp", "eval", "serve", "bo", "nas", "exec", "core", "bench"};
  return names;
}

void report_modules(const ModuleTimes& t, double wall, Report& r) {
  for (const auto& m : module_names()) {
    r.layer("self." + m, wall > 0.0 ? t.get(m) / wall : 0.0, "ratio");
  }
  const double coverage = wall > 0.0 ? t.total() / wall : 0.0;
  r.layer("trace.coverage", coverage, "ratio");
  r.check(std::fabs(coverage - 1.0) <= 0.10,
          "module self times sum to " + json_num(coverage) +
              " of the timed wall time (must be within 10%)");
}

// --- Workload inputs -----------------------------------------------------------

agebo::data::TrainValidTest covertype_split(std::uint64_t seed, double scale) {
  agebo::Rng split_rng(seed);
  auto splits = agebo::data::split(
      agebo::data::make_classification(agebo::data::covertype_spec(scale, 42)),
      agebo::data::SplitFractions{}, split_rng);
  agebo::data::standardize(splits);
  return splits;
}

namespace {

// Training cost of a genome at n = 1, 2 and 4 together, 2 epochs of the
// `train` split (ms on the defining host; a least-squares fit over 80
// random genomes), and the target GenomeStream pulls towards (near the
// space's median).
constexpr double kCostTargetMs = 430.0;
constexpr int kCandidates = 8;

double modelled_cost_ms(const agebo::nn::GraphSpec& g, std::size_t params) {
  // Per unit, by activation: identity, swish, relu, tanh, sigmoid.
  constexpr double kActUnit[] = {0.44, 0.64, 0.45, 0.82, 0.54};
  constexpr double kPerSkip = 7.56, kPerDense = -7.16, kPerParam = 0.00155;
  double c = kPerParam * static_cast<double>(params) +
             kPerSkip * static_cast<double>(g.output_skips.size());
  for (const auto& node : g.nodes) {
    c += kPerSkip * static_cast<double>(node.skips.size());
    if (node.is_identity) continue;
    c += kActUnit[static_cast<int>(node.act)] *
             static_cast<double>(node.units) +
         kPerDense;
  }
  return c;
}

}  // namespace

GenomeStream::GenomeStream(const agebo::data::Dataset& train,
                           std::uint64_t seed)
    : in_(train.n_features), out_(train.n_classes), rng_(seed * 7919 + 17) {}

agebo::nas::Genome GenomeStream::next() {
  agebo::nas::Genome best;
  double best_d = 0.0;
  for (int i = 0; i < kCandidates; ++i) {
    agebo::nas::Genome g = space_.random(rng_);
    const auto spec = space_.to_graph_spec(g, in_, out_);
    agebo::Rng init(1);
    const agebo::nn::GraphNet net(spec, init);
    const double d = std::fabs(
        std::log(modelled_cost_ms(spec, net.num_params()) / kCostTargetMs));
    if (i == 0 || d < best_d) {
      best = std::move(g);
      best_d = d;
    }
  }
  return best;
}

std::string genome_fingerprint(
    const std::vector<agebo::nas::Genome>& genomes) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const auto& g : genomes) {
    for (char c : agebo::nas::SearchSpace::key(g) + ";") {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// --- Registry helpers ---------------------------------------------------------

agebo::obs::HistogramData hist_delta(const agebo::obs::Snapshot& after,
                                     const agebo::obs::Snapshot& before,
                                     const std::string& name) {
  agebo::obs::HistogramData out;
  const auto* a = after.find(name);
  if (a == nullptr) return out;
  out = a->hist;
  if (const auto* b = before.find(name)) {
    out.count -= b->hist.count;
    out.sum -= b->hist.sum;
    for (std::size_t i = 0; i < out.bucket_counts.size() &&
                            i < b->hist.bucket_counts.size();
         ++i) {
      out.bucket_counts[i] -= b->hist.bucket_counts[i];
    }
  }
  return out;
}

double value_delta(const agebo::obs::Snapshot& after,
                   const agebo::obs::Snapshot& before,
                   const std::string& name) {
  const auto* a = after.find(name);
  const auto* b = before.find(name);
  return (a ? a->value : 0.0) - (b ? b->value : 0.0);
}

}  // namespace perfbench
