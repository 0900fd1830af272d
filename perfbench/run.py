#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
perfbench package (the robustalloc libraries, robustd and the perfbench
program, Release) under $CARGO_TARGET_DIR or .bench_build; later runs reuse
that build. The program's standard output is passed through; its last line
is the result object, checked here against BENCHMARK.json's metric lists.
Exits non-zero, without a result line, when the build, the run or that
check fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_all",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-expectation", action="store_true",
                        help="flip one expected answer: the run must "
                             "report failed operations")
    args = parser.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "perfbench")
    build(build_dir)

    workdir = os.path.join(root, f"run-{os.getpid()}")
    traces = os.path.join(root, "traces")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--robustd", os.path.join(build_dir, "robustalloc", "apps",
                                     "robustd"),
           "--trace-out",
           os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt_expectation:
        cmd.append("--corrupt-expectation")
    # A session of its own, so a timeout can stop robustd children too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    shutil.rmtree(workdir, ignore_errors=True)

    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"perfbench exited {proc.returncode}")
    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
                 f"{sorted(expected.items())}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
