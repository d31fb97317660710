#!/usr/bin/env python3
"""Build and run the DISC benchmark.

    python3 perfbench/run.py --workload machine|paper_tables|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the simulator libraries,
disc-serve and the benchmark program from source (Release with LTO, in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload, checks that the printed metrics are exactly the catalogue
BENCHMARK.json declares, appends the result with the build type and
LTO state to results.jsonl in the build directory, and prints the
result JSON as the last line of standard output.

Exit status: 0 when the run was clean; non-zero (and no result line)
when the build, the run or the output check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
OPT_OUTS = ("DISC_NO_FASTFORWARD", "DISC_NO_UOP", "DISC_NO_SUPERBLOCK",
            "DISC_NO_BATCH")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "perfbench")


def build(bdir):
    """Configure (once) and build; raises CalledProcessError on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def catalogue(trace):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, expected):
    """Problems with one result object against the declared catalogue."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number")
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    for name in sorted(set(expected) - set(got)):
        problems.append("metric %s missing" % name)
    for name in sorted(set(got) - set(expected)):
        problems.append("metric %s not declared" % name)
    for name in sorted(set(got) & set(expected)):
        value = result["metrics"][name].get("value")
        if got[name] != expected[name]:
            problems.append("metric %s unit %s, declared %s"
                            % (name, got[name], expected[name]))
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append("metric %s value is not a number" % name)
    return problems


def run(args, bdir):
    work = os.path.join(bdir, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(bdir, "discbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo", ".", "--work-dir", work,
           "--serve-bin", os.path.join(bdir, "disc_tools", "disc-serve")]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return None, 1
    lines = [line for line in out.splitlines() if line.strip()]
    for line in lines[:-1]:
        print(line)
    if not lines:
        return None, proc.returncode or 1
    try:
        return json.loads(lines[-1]), proc.returncode
    except json.JSONDecodeError:
        log("last line is not JSON: %r" % lines[-1])
        return None, proc.returncode or 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["machine", "paper_tables", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="test hook: every reference digest is wrong")
    args = ap.parse_args()

    for var in OPT_OUTS:
        if var in os.environ:
            log("refusing to run with %s set: it selects a non-default "
                "execution tier" % var)
            return 2

    bdir = build_dir()
    try:
        build(bdir)
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1
    result, code = run(args, bdir)
    if result is None:
        return code or 1
    problems = check_result(result, catalogue(args.trace))
    if problems:
        for p in problems:
            log(p)
        return 1
    build_type, lto = "unknown", "unknown"
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
            if line.startswith("PERFBENCH_LTO:"):
                lto = line.split("=", 1)[1].strip()
    with open(os.path.join(bdir, "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "build_type": build_type, "lto": lto,
                            "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
