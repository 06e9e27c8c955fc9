#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 perfbench/selftest.py [--seed N]

Builds the benchmark (through run.py) and, for every workload, makes
reduced-length runs (--quick):
  - twice with one seed, untraced: every output check passes, and the
    deterministic metrics (quality, exec.utilization, campaign.evals,
    kernels.flops_per_sample) and the input fingerprint are identical;
  - once with another seed: the input fingerprint (genome set, champion
    genome, campaign seeds) changes;
  - once traced: the per-layer report is complete and its checks pass
    (module self times sum to the wall time within 10%).
Exits 0 when all pass, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["train", "serve", "campaign"]
DETERMINISTIC = ["quality", "exec.utilization", "campaign.evals",
                 "kernels.flops_per_sample"]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--quick"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {p.returncode}:\n"
                           f"{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    other = {}
    inputs = None
    for line in lines[:-1]:
        key, _, rest = line.partition(": ")
        if key in ("per_layer", "end_to_end"):
            other = json.loads(rest)
        elif key == "note" and rest.startswith("inputs: "):
            inputs = rest[len("inputs: "):]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics.update({k: v["value"] for k, v in other.items()})
    return result, metrics, inputs


def main():
    seed = 1
    if "--seed" in sys.argv:
        seed = int(sys.argv[sys.argv.index("--seed") + 1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    layer_names = {m["name"] for m in spec["per_layer"]}
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        a, ma, ia = run(w, seed, 0)
        b, mb, ib = run(w, seed, 0)
        c, _, ic = run(w, seed + 1, 0)
        t, mt, _ = run(w, seed, 1)
        for name, res in (("first", a), ("repeat", b), ("other seed", c),
                          ("traced", t)):
            expect(res["correct"] and res["failed"] == 0,
                   f"{w}: {name} run passes its output checks")
        expect(set(a["metrics"]) == e2e_names,
               f"{w}: untraced run reports every end-to-end metric")
        expect(set(t["metrics"]) == layer_names,
               f"{w}: traced run reports every per-layer metric")
        for m in DETERMINISTIC:
            if m in ma:
                expect(ma[m] == mb[m], f"{w}: {m} repeats exactly "
                                       f"({ma[m]} vs {mb[m]})")
        expect(ia is not None and ia == ib, f"{w}: same seed, same inputs")
        expect(ic is not None and ic != ia,
               f"{w}: another seed draws other inputs ({ia} vs {ic})")
        expect(0.9 <= mt.get("trace.coverage", 0.0) <= 1.1,
               f"{w}: module self times cover the traced wall time "
               f"({mt.get('trace.coverage')})")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
