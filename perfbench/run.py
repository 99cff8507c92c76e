#!/usr/bin/env python3
"""OLIVE benchmark runner: builds perfbench/ against the repository's src/
and runs one workload, or all of them.

  python3 perfbench/run.py --workload plan_steady --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10

One workload prints the benchmark's report; its last stdout line is the
result JSON.  `--workload all` runs every workload untraced and traced,
prints each report, the tracing overhead of every end-to-end metric, and a
combined result line.  The build goes to $CARGO_TARGET_DIR, else
.bench_build, under the directory the runner is started from.  Exit code 0
only when the build succeeds and every correctness check passes.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["plan_steady", "drift_replan", "live_open_loop"]
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "olive_bench"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    exe = os.path.join(build_dir, "olive_bench")
    return exe if os.path.isfile(exe) else None


def outcome_line(stdout):
    return next((l for l in stdout.splitlines() if l.startswith("# outcomes:")), None)


def run_one(exe, build_dir, workload, seed, seconds, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(build_dir, f"spans-{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"# {workload}: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None, {}, None
    lines = proc.stdout.splitlines()
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    traced_e2e = {}
    for line in lines:
        if line.startswith("# traced e2e "):
            traced_e2e = json.loads(line[len("# traced e2e "):])
    return proc.returncode, result, traced_e2e, outcome_line(proc.stdout)


def run_all(exe, build_dir, seed, seconds):
    ok = True
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    overhead = []
    for w in WORKLOADS:
        code0, plain, _, outcomes0 = run_one(exe, build_dir, w, seed, seconds, 0)
        code1, traced, traced_e2e, outcomes1 = run_one(exe, build_dir, w, seed, seconds, 1)
        ok = ok and code0 == 0 and code1 == 0 and plain is not None and traced is not None
        if w != "live_open_loop" and plain is not None:
            # The decorator is transparent: tracing changes no decision.
            same = outcomes0 == outcomes1 and all(
                traced_e2e.get(k) == plain["metrics"][k]["value"]
                for k in ("rejection_rate", "total_cost"))
            print(f"# {w}: traced run decides exactly as the untraced one: {same}")
            ok = ok and same
        for r in (plain, traced):
            if r is None:
                combined["correct"] = False
                continue
            combined["correct"] = combined["correct"] and r["correct"]
            combined["attempted"] += r["attempted"]
            combined["failed"] += r["failed"]
        if plain:
            for name, m in plain["metrics"].items():
                combined["metrics"][f"{w}.{name}"] = m
                if name in traced_e2e and m["value"]:
                    delta = traced_e2e[name] - m["value"]
                    overhead.append((w, name, m["value"], traced_e2e[name], delta / m["value"]))
    print("# tracing overhead (traced minus untraced, as a share of untraced):")
    for w, name, plain_v, traced_v, share in overhead:
        print(f"#   {w:15s} {name:15s} {plain_v:14.6g} -> {traced_v:14.6g}  {share:+.1%}")
    print(json.dumps(combined))
    return 0 if ok and combined["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    if exe is None:
        print("# build failed", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(exe, build_dir, args.seed, args.seconds)
    code, result, _, _ = run_one(exe, build_dir, args.workload, args.seed, args.seconds,
                              args.trace)
    return code if result is not None else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
