#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload suite_cold --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The first run configures and builds the
library, the worker binary and the perfbench program from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs only
re-check it. The program's output is passed through; its last line is
the JSON result. With --trace 1 a Chrome trace-event file of the run is left
under <build dir>/traces/.

Exits non-zero, without a result line, when the build or the run fails, or
when the run takes longer than run_timeout(--seconds).
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_timeout(seconds):
    """Longest a run may take: the measured window, plus set-up before and
    after it and the oracle check, which grows with the campaigns the window
    holds (a 45 s window ends within 75 s on a 4-core host)."""
    return 2 * seconds + 60


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def reap_group(pgid):
    """Kills whatever is left of the program's process group (its worker
    processes, should the program die before stopping them) and waits until
    the group is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    log("worker processes did not exit")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (root / "perfbench").resolve()
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    work_dir = build_dir / "run" / f"{args.workload}-{os.getpid()}"
    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=run_timeout(args.seconds))
    except subprocess.TimeoutExpired:
        log(f"run exceeded {run_timeout(args.seconds)} s")
        reap_group(proc.pid)
        proc.wait()
        return 1
    finally:
        reap_group(proc.pid)
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (json.JSONDecodeError, IndexError):
        ok = False
    if not ok:
        sys.stderr.write(out)
        log(f"no result line (exit {proc.returncode})")
        return 1
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
