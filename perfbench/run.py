#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload train|serve|campaign --seed N \
        --seconds S --trace 0|1 [--quick]

Run from the repository root. Configures and builds perfbench/ (which
compiles src/ with the repository's own flags) into the directory named by
$CARGO_TARGET_DIR, or .bench_build, then runs one workload. Build output goes
to stderr; the benchmark's report goes to stdout, and its last line is the
JSON result {correct, attempted, failed, metrics}. Exits non-zero, printing
no result, when the sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "perfbench")
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(out, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ tree next to perfbench/; nothing to build",
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
