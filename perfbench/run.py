#!/usr/bin/env python3
"""Served end-to-end benchmark of kvmatch.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test        # the benchmark's own unit tests

Run from the repository root. Builds `kvmatch_cli` (the repository's own
CMake project) and the `kvbench` load generator under `.bench_build/`, then
runs one workload: real `kvmatch_cli serve` / `coord` processes on a fresh
on-disk store, driven over the wire protocol. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it, starting
with "# meta", carries run metadata. With --trace 1 the bench-side spans,
server traces and /metrics deltas are written to
`.bench_build/traces/<workload>-seed<n>.json`.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def sh(cmd, env):
    # Build chatter goes to stderr: stdout's last line is the result.
    subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)


def build(root, env, targets):
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", build_dir,
            "-DCMAKE_BUILD_TYPE=Release"], env)
    jobs = str(min(4, os.cpu_count() or 1))
    sh(["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets, env)
    return build_dir


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unavailable (not a git checkout)"
    out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unavailable"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(HERE, "..", "CMakeLists.txt")):
        print("run.py: the kvmatch sources are not next to perfbench/",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    tmp = os.path.join(root, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    if args.test:
        build_dir = build(root, env, ["kvbench_test"])
        return subprocess.run([os.path.join(build_dir, "kvbench_test")],
                              env=env).returncode

    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"run.py: --workload must be one of {names}", file=sys.stderr)
        return 2
    build_dir = build(root, env, ["kvmatch_cli", "kvbench"])
    traces = os.path.join(root, ".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    work = os.path.join(root, ".bench_build",
                        f"work-{args.workload}-{os.getpid()}")
    cmd = [os.path.join(build_dir, "kvbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(build_dir, "kvmatch", "kvmatch_cli"),
           "--work", work,
           "--spans", os.path.join(
               traces, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"run.py: kvbench exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1

    result = json.loads(lines[-1])
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            got != want:
        print("run.py: result does not match BENCHMARK.json", file=sys.stderr)
        return 1
    why = next(w["why"] for w in bench["workloads"]
               if w["name"] == args.workload)
    print("# run " + json.dumps({"git_sha": git_sha(root), "why": why}))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
