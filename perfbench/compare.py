#!/usr/bin/env python3
"""Compare two saved perfbench reports.

    python3 perfbench/compare.py OLD.txt NEW.txt [--cross-host]

Each file is the standard output of one run.py invocation. Prints, for
every metric of the final result (and of the other family's line), the old
and new values and their ratio. Reports from hosts with different
fingerprints (CPU model, nproc, int8 kernel tier) are refused (exit 3)
unless --cross-host is given; then the host-dependent metrics (host.*) are
listed as not comparable and only the probe-normalized ones are compared.
"""
import json
import sys


def load(path):
    with open(path) as f:
        lines = f.read().strip().splitlines()
    report = {"result": json.loads(lines[-1]), "host": {}, "other": {}}
    for line in lines[:-1]:
        key, _, rest = line.partition(": ")
        if key == "host":
            report["host"] = json.loads(rest)
        elif key in ("per_layer", "end_to_end"):
            report["other"] = json.loads(rest)
    return report


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    cross = "--cross-host" in sys.argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(args[0]), load(args[1])
    fo = old["host"].get("fingerprint")
    fn = new["host"].get("fingerprint")
    same_host = fo is not None and fo == fn
    if not same_host:
        print(f"HOST MISMATCH: {fo!r} vs {fn!r}")
        if not cross:
            print("refusing to compare across hosts (pass --cross-host to "
                  "compare the probe-normalized metrics only)")
            return 3
    metrics_old = dict(old["other"], **old["result"]["metrics"])
    metrics_new = dict(new["other"], **new["result"]["metrics"])
    for name in sorted(set(metrics_old) | set(metrics_new)):
        a = metrics_old.get(name, {}).get("value")
        b = metrics_new.get(name, {}).get("value")
        unit = (metrics_new.get(name) or metrics_old.get(name))["unit"]
        if not same_host and name.startswith("host."):
            print(f"{name:32s} not comparable across hosts")
            continue
        ratio = f"{b / a:8.3f}x" if a and b is not None else "      --"
        print(f"{name:32s} {a!s:>24} {b!s:>24} {ratio} {unit}")
    for tag, r in (("old", old), ("new", new)):
        res = r["result"]
        if not res["correct"]:
            print(f"{tag}: FAILED CHECKS ({res['failed']} of "
                  f"{res['attempted']} operations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
