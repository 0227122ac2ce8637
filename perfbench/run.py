#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source checkout.  Builds the simulator library and
the perfbench binary from source into .bench_build/ (a no-op when up to
date), runs one workload, and prints the binary's output; the last line
is the result object {"correct", "attempted", "failed", "metrics"}.
Scratch stores live under .bench_out/ and are removed at exit.  Exits
non-zero without a result line when the checkout cannot be built or the
binary's output breaks the BENCHMARK.json contract.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
# Whole-run ceiling for the perfbench process; the contract allows 180 s.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def source_id():
    """The commit when the checkout is a git work tree, else a digest of
    the sources the benchmark builds (for a checkout exported without
    .git)."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git work tree")
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src",):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no simulator sources next to perfbench/ (run from a full checkout)")
    env = dict(os.environ)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            fail("configure failed", 1)
    r = subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                        "-j", "3"], stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed", 1)
    return os.path.join(BUILD, "perfbench")


def child_env():
    env = dict(os.environ)
    # The simulator reads these; the benchmark fixes scale and stores.
    for var in ("SNUG_FULL_SCALE", "SNUG_CACHE_DIR", "SNUG_WARM_BANK_DIR"):
        env.pop(var, None)
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    contract = load_contract()
    binary = build()
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.selftest:
            r = subprocess.run([binary, "--selftest", "--workdir=" + workdir],
                               env=child_env(), timeout=RUN_TIMEOUT_S)
            return r.returncode

        names = [w["name"] for w in contract["workloads"]]
        if args.workload not in names:
            fail("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
        seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
        spans = os.path.join(OUT, "spans-%s-seed%d.json" % (args.workload, args.seed))
        cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%s" % seconds, "--trace=%d" % args.trace,
               "--workdir=" + workdir, "--spans-out=" + spans,
               "--commit=" + source_id()]
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               env=child_env(), timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("perfbench exceeded %d s" % RUN_TIMEOUT_S, 1)
        if r.returncode != 0:
            fail("perfbench exited with %d" % r.returncode, 1)
        lines = [l for l in r.stdout.splitlines() if l.strip()]
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            fail("perfbench printed no result line", 1)
        want = [m["name"] for m in contract["per_layer" if args.trace else "end_to_end"]]
        if sorted(result.get("metrics", {})) != sorted(want):
            fail("perfbench metrics do not match BENCHMARK.json: got %s"
                 % sorted(result.get("metrics", {})), 1)
        with open(os.path.join(OUT, "result-%s-seed%d-trace%d.jsonl"
                               % (args.workload, args.seed, args.trace)), "w") as f:
            f.write("\n".join(lines) + "\n")
        print("\n".join(lines))
        sys.stdout.flush()
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
