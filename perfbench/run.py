#!/usr/bin/env python3
"""End-to-end serving benchmark for clftj_server (see perfbench/README.md).

    python3 perfbench/run.py --workload warm-mixed --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Builds clftj_server, clftj_cli and the harness from source (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the
harness self-test, then runs the workload. The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}. Exits
nonzero if the build fails, an answer is wrong, or the server dies.
Run from the root of the repository; everything it writes stays under
.bench_build/ and .bench_work/ there.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["warm-mixed", "cold-join", "read-write"]
# One harness run must end well inside the 180 s a run is allowed.
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target",
           "clftj_server", "clftj_cli", "perfbench_harness"]
    return subprocess.run(cmd, cwd=root, stdout=sys.stderr).returncode == 0


def run_harness(root, args):
    """Runs the harness in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen(args, cwd=root, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        log("harness timed out after %d s" % HARNESS_TIMEOUT_S)
        return 1, out
    finally:
        # The server is the harness's child and dies with it; make sure no
        # process of the group survives either way.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def run_one(root, harness, bin_dir, workload, seed, seconds, trace):
    work = os.path.join(".bench_work", "%s-seed%d-trace%d" % (workload, seed, trace))
    shutil.rmtree(os.path.join(root, work), ignore_errors=True)
    code, out = run_harness(root, [
        harness, "run", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--bin", bin_dir,
        "--out", work])
    # The generated relations are reproducible from the seed; keep only the
    # report, the spans and the server log.
    shutil.rmtree(os.path.join(root, work, "data"), ignore_errors=True)
    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return code, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    if not build(root, build_dir):
        log("build failed")
        return 1
    harness = os.path.join(build_dir, "perfbench_harness")
    bin_dir = os.path.join(build_dir, "clftj")

    selftest_dir = os.path.join(".bench_work", "selftest-%d" % os.getpid())
    code, out = run_harness(root, [harness, "selftest", "--out", selftest_dir])
    shutil.rmtree(os.path.join(root, selftest_dir), ignore_errors=True)
    if code != 0:
        sys.stderr.write(out or "")
        log("harness self-test failed")
        return 1

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = sorted(m["name"] for m in
                      spec["per_layer" if args.trace else "end_to_end"])

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        code, lines, result = run_one(root, harness, bin_dir, workload,
                                      args.seed, args.seconds, args.trace)
        if result is None:
            sys.stderr.write("\n".join(lines) + "\n")
            log("%s: no result" % workload)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        if code != 0:
            status = 1
        missing = [m for m in expected if m not in result["metrics"]]
        if missing:
            log("%s: no value for %s" % (workload, ", ".join(missing)))
            return 1
        result["metrics"] = {m: result["metrics"][m] for m in expected}
        if len(workloads) == 1:
            combined = result
            break
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(combined), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
