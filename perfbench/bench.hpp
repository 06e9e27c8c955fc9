// Shared plumbing of the end-to-end benchmark (perfbench/): the reference
// probe, probe-normalized timed slices, the result record, and the traced
// run's span accounting. Nothing here lives in src/: the probe in
// particular must not move when the program's code changes, so it is
// written against the standard library only.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "nas/search_space.hpp"
#include "obs/registry.hpp"

namespace perfbench {

inline double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

// --- Reference probe ------------------------------------------------------

/// Reference probe time (ms) that defines a "normalized second": a timed
/// slice measured next to a probe of P ms is reported as raw * kRefProbeMs
/// / P seconds. It is a fixed constant, near the probe's time on the host
/// the benchmark was defined on, so normalized values read as seconds of
/// that host.
constexpr double kRefProbeMs = 10.0;

/// Fixed-work probe on `threads` threads at once (each does the full work;
/// see bench.cpp). Returns its wall time in ms. The probe threads persist
/// and are joined at process exit.
double run_probe_ms(std::size_t threads);

/// Fork-join reference probe (see bench.cpp): a fixed run of short
/// collectives over a persistent team of host_threads() threads, shaped
/// like one offline predict_batch. Returns its wall time in ms.
double run_forkjoin_probe_ms();
/// The fork-join probe's fast decile on the defining host: `serve`'s
/// offline throughput is normalized to a host where it takes this long.
constexpr double kRefForkJoinMs = 0.5;

/// Share of a slice's length spent probing after it (see Slices::finish),
/// and how many probes around a slice normalize it.
constexpr double kProbeShare = 0.2;
constexpr std::size_t kProbeWindow = 32;

/// Timed slices bracketed by probes: probes run before the first slice and
/// after every slice. A slice's normalized time is its raw wall time times
/// kRefProbeMs over the median of the kProbeWindow probes nearest it. Host
/// speed on a shared machine moves within seconds (other tenants' load
/// comes and goes), so each slice is scaled by probes taken next to it;
/// the median keeps one probe that a burst hit (up to 4x the others) from
/// rescaling its slice.
class Slices {
 public:
  /// `target_s`: a slice closes at the first tick() past this long.
  Slices(std::size_t probe_threads, double target_s)
      : threads_(probe_threads), target_s_(target_s) {}

  /// Probe, then open a slice.
  void open();
  /// Close the current slice (probe after it) when it has run for at least
  /// target_s, and open the next one. Returns true when a slice closed.
  bool tick();
  /// Close the open slice, whatever its length.
  void close();

  /// Closed slices so far: also the index the open slice will get.
  std::size_t count() const { return raw_.size(); }
  /// kRefProbeMs over slice_probe_ms(i).
  double factor(std::size_t i) const {
    return kRefProbeMs / slice_probe_ms(i);
  }
  /// kRefProbeMs over the median of every probe of the run, for the few
  /// per-layer timings taken outside slices.
  double run_factor() const;
  double raw(std::size_t i) const { return raw_[i]; }
  /// Sums over closed slices [first, last).
  double raw_total(std::size_t first = 0, std::size_t last = SIZE_MAX) const;
  double norm_total(std::size_t first = 0, std::size_t last = SIZE_MAX) const;
  /// Median of the probes nearest slice i.
  double slice_probe_ms(std::size_t i) const;
  /// Index into probes_ms() of the first probe after slice i.
  std::size_t first_probe_after(std::size_t i) const { return first_after_[i]; }
  const std::vector<double>& probes_ms() const { return probes_ms_; }

 private:
  double probe();  // one probe into the run's pool
  void finish();

  std::size_t threads_;
  double target_s_;
  bool open_ = false;
  double t0_ = 0.0;
  std::vector<double> raw_;
  std::vector<std::size_t> first_after_;  // per slice: its first probe after
  std::vector<double> probes_ms_;  // every probe taken, in order
};

/// Per-operation times tagged with the slice they ran in, normalized by
/// that slice's probes once it has closed.
class Samples {
 public:
  void add(const Slices& s, double seconds) { add(s.count(), seconds); }
  void add(std::size_t slice, double seconds) {
    slice_.push_back(slice);
    raw_.push_back(seconds);
  }
  std::size_t size() const { return raw_.size(); }
  const std::vector<double>& raw() const { return raw_; }
  std::vector<double> normalized(const Slices& s) const;

 private:
  std::vector<std::size_t> slice_;
  std::vector<double> raw_;
};

/// Runs `setup` `reps` times with a probe of `threads` threads (as many as
/// the set-up keeps busy) before each and after the last; returns the
/// median raw time and its normalization by the median of those probes
/// (seconds). A wider probe than the set-up uses would read bursts on other
/// cores that the set-up never feels.
template <class F>
std::pair<double, double> timed_setup(std::size_t reps, std::size_t threads,
                                      F&& setup) {
  std::vector<double> raw, probes{run_probe_ms(threads)};
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = now_s();
    setup();
    raw.push_back(now_s() - t0);
    probes.push_back(run_probe_ms(threads));
  }
  const double r = median(raw);
  return {r, r * kRefProbeMs / median(probes)};
}

// --- Result record ---------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit) {
    e2e_[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layer_[name] = {value, unit};
  }
  /// Operations the workload attempted / failed (an evaluation, a request).
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// One output check; a failed check counts as a failed operation.
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes_.push_back(line); }

  /// Lines before the result: notes, failed checks, the host record, and
  /// the slice table; then the one-line JSON result (e2e metrics when
  /// !trace, per-layer metrics when trace).
  void print(bool trace, const std::string& host_json,
             const Slices* slices) const;
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

 private:
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
};

// --- Traced run: benchmark spans around calls into each module -------------

/// Accumulated wall time of the benchmark's spans, keyed by module. A span
/// is opened around a call into a module's public function; its self time
/// is its duration minus the time of the program's own child spans that
/// the caller attributes to other modules (see the workloads).
class ModuleTimes {
 public:
  void add(const std::string& module, double seconds) { t_[module] += seconds; }
  double get(const std::string& module) const {
    auto it = t_.find(module);
    return it == t_.end() ? 0.0 : it->second;
  }
  double total() const;

 private:
  std::map<std::string, double> t_;
};

/// Every module named in BENCHMARK.json's per-layer `self.*` metrics.
const std::vector<std::string>& module_names();

/// Per-layer `self.<module>` shares of `wall`, `trace.coverage` (sum of
/// module self times over the slices' wall time) and a check that coverage
/// is within 10% of 1.
void report_modules(const ModuleTimes& t, double wall, Report& r);

// --- Registry helpers --------------------------------------------------------

/// Histogram state `after` minus `before` (both from snapshots of one
/// registry), so a window of one run can be read out of cumulative totals.
agebo::obs::HistogramData hist_delta(const agebo::obs::Snapshot& after,
                                     const agebo::obs::Snapshot& before,
                                     const std::string& name);
double value_delta(const agebo::obs::Snapshot& after,
                   const agebo::obs::Snapshot& before,
                   const std::string& name);

// --- Workload inputs ---------------------------------------------------------

/// The Covertype-shaped table shared by `train` and `serve`: one fixed
/// table (generator seed 42, as a real benchmark dataset would be), split
/// 42/25/33 with `seed` and standardized on the train split.
agebo::data::TrainValidTest covertype_split(std::uint64_t seed, double scale);

/// Seeded stream of search-space genomes. Each genome is the one of four
/// SearchSpace::random draws whose modelled training cost is nearest a
/// fixed target, so a set of them costs about the same on every seed while
/// every seed draws different architectures.
class GenomeStream {
 public:
  GenomeStream(const agebo::data::Dataset& train, std::uint64_t seed);
  agebo::nas::Genome next();

 private:
  agebo::nas::SearchSpace space_;
  std::size_t in_, out_;
  agebo::Rng rng_;
};

/// Short hex fingerprint of a genome list, printed as the run's `inputs`
/// note so the self-tests can see that a seed changes what is run.
std::string genome_fingerprint(const std::vector<agebo::nas::Genome>& genomes);

// --- Workloads ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced-length run for the self-tests: smaller inputs, one pass.
  bool quick = false;
};

void run_train(const Options& opt, Report& r, Slices& s);
void run_serve(const Options& opt, Report& r, Slices& s);
void run_campaign(const Options& opt, Report& r, Slices& s);

/// Probe thread count for workloads that load every core.
std::size_t host_threads();

}  // namespace perfbench
