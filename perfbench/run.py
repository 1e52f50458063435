#!/usr/bin/env python3
"""Build the allocator benchmark from source and run one workload.

    python3 perfbench/run.py --workload larson-tc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test        # tests of the benchmark's checks

Run from the root of a checkout.  The binaries are built with CMake into
.bench_build/perfbench; heap files, models and span traces of a run live in
.bench_build/perfbench-work and are removed when the run ends.  The last
line of standard output is the run's JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
WORKLOADS = ("larson-tc", "churn-tx", "ycsb-tree")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build; an up-to-date tree costs a second."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(f.encode() + b"\0" + fh.read())
    return "src-" + h.hexdigest()[:12]


def sweep_stale_runs():
    """Remove the heap directories of earlier runs that were killed."""
    runs = os.path.join(WORK, "runs")
    if not os.path.isdir(runs):
        return
    for name in os.listdir(runs):
        try:
            os.kill(int(name), 0)
        except (ValueError, ProcessLookupError):
            shutil.rmtree(os.path.join(runs, name), ignore_errors=True)
        except PermissionError:
            pass


def run(args):
    os.makedirs(WORK, exist_ok=True)
    sweep_stale_runs()
    # The program receives only the generated inputs: no POSEIDON_* knob
    # from the calling environment reaches it.
    env = {k: v for k, v in os.environ.items() if not k.startswith("POSEIDON_")}
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK, "--commit", revision()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The whole group: the benchmark and any server or crash child.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    finally:
        shutil.rmtree(os.path.join(WORK, "runs", str(proc.pid)),
                      ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
        return proc.returncode
    lines = out.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no JSON result on the last line")
        return 1
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--test", action="store_true",
                   help="build and run the tests of the benchmark's checks")
    args = p.parse_args()
    if not args.test and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    if args.test:
        os.makedirs(WORK, exist_ok=True)
        return subprocess.run([os.path.join(BUILD, "perfbench_checks_test")],
                              cwd=WORK).returncode
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
