// perfbench: the repository's end-to-end benchmark driver.
//
//   perfbench --workload train|serve|campaign --seed N --seconds S
//             --trace 0|1 [--quick]
//
// Runs one workload in this process, checks its outputs, and prints the
// host record, the probe-bracketed slice table, and, as the last line, one
// JSON object {correct, attempted, failed, metrics}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones (BENCHMARK.json lists
// both). --quick is the reduced-length run the self-tests use. Normally
// started through run.py, which builds this binary first.
#include <cpuid.h>

#include <algorithm>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "nn/kernels/gemm_s8.hpp"

namespace {

std::string cpu_model() {
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  const auto e = s.find_last_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string host_json(const perfbench::Slices& s) {
  const std::string model = escape(cpu_model());
  const std::size_t nproc = perfbench::host_threads();
  const std::string isa = agebo::nn::kernels::to_string(
      agebo::nn::kernels::active_int8_isa());
  std::vector<double> probes = s.probes_ms();
  double lo = probes.empty() ? 0.0 : probes[0], hi = lo;
  for (double p : probes) {
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"cpu\": \"%s\", \"nproc\": %zu, \"int8_isa\": \"%s\", "
                "\"fingerprint\": \"%s|%zu|%s\", \"ref_probe_ms\": %.17g, "
                "\"probe_ms_p50\": %.17g, \"probe_ms_min\": %.17g, "
                "\"probe_ms_max\": %.17g, \"probes\": %zu}",
                model.c_str(), nproc, isa.c_str(), model.c_str(), nproc,
                isa.c_str(), perfbench::kRefProbeMs,
                perfbench::median(probes), lo, hi, probes.size());
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload train|serve|"
               "campaign --seed N --seconds S --trace 0|1 [--quick]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = std::stoi(value()) != 0;
      } else if (a == "--quick") {
        opt.quick = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  perfbench::Report report;
  // Slices close at the first tick past 0.1 s, so host speed is sampled
  // every 0.1 s of workload. `train` probes on every core, as its replicas
  // and kernel pool keep them all busy through each evaluation. `campaign`
  // probes on one thread, as its manager is single-threaded, and so does
  // `serve`, whose end-to-end timings are normalized by probes shaped like
  // them (see serve.cpp); its slices' probes scale only per-layer timings.
  perfbench::Slices slices(
      opt.workload == "train" ? perfbench::host_threads() : 1, 0.1);
  try {
    if (opt.workload == "train") {
      perfbench::run_train(opt, report, slices);
    } else if (opt.workload == "serve") {
      perfbench::run_serve(opt, report, slices);
    } else if (opt.workload == "campaign") {
      perfbench::run_campaign(opt, report, slices);
    } else {
      usage("--workload must be train, serve or campaign");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  const auto& probes = slices.probes_ms();
  if (!probes.empty()) {
    report.layer("host.probe_ms", perfbench::median(probes), "ms");
    report.layer("host.probe_max_over_min",
                 *std::max_element(probes.begin(), probes.end()) /
                     *std::min_element(probes.begin(), probes.end()),
                 "ratio");
  }
  // A failed check is reported in the result (correct: false), not in the
  // exit code: exit 0 means a result was printed.
  report.print(opt.trace, host_json(slices), &slices);
  return 0;
}
