#!/usr/bin/env python3
"""Repository benchmark for the PANDAS simulator.

Builds the perfbench binary (perfbench/CMakeLists.txt) from the sources
under src/, runs one workload in its own serial process, checks its outputs
and prints every metric with its unit. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--size tiny runs the same code path on a small fixture (used by
perfbench/selftest.py). The build tree goes to $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset.

Beyond the checks the binary makes inside the run, this script checks
that every deterministic output equals what earlier runs of the same sources
at the same seed recorded in the build tree. The exit status is 0 only when
every check passes.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once, then brings the build up to date (a no-op when it is)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "experiment.h")):
        log(f"simulator sources not found under {os.path.join(ROOT, 'src')}")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    exe = os.path.join(bdir, "perfbench")
    return exe if os.path.isfile(exe) else None


def source_digest():
    """SHA-256 over the simulator and benchmark sources (paths + contents)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_state():
    """(revision, dirty) of the checkout, or (None, None) outside git."""
    if shutil.which("git") is None or not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    env = dict(os.environ, GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)

    def git(*args):
        r = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                           text=True, env=env)
        return r.stdout.strip() if r.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return rev, (None if status is None else bool(status))


def check_repeat(bdir, digest, key, exact):
    """Compares deterministic outputs with earlier runs of the same sources at
    the same seed, then records any outputs not seen before."""
    cache_dir = os.path.join(bdir, "determinism", digest[:16])
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, key + ".json")
    earlier = {}
    if os.path.isfile(path):
        with open(path) as f:
            earlier = json.load(f)
    diffs = [f"{k}: {v!r} now, {earlier[k]!r} before"
             for k, v in exact.items() if k in earlier and earlier[k] != v]
    if not diffs:
        merged = dict(earlier)
        merged.update(exact)
        tmp = path + f".{os.getpid()}.tmp"
        with open(tmp, "w") as f:
            json.dump(merged, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    detail = (f"{len(exact)} outputs, {len(set(exact) & set(earlier))} "
              f"compared with earlier runs" if not diffs else "; ".join(diffs))
    return {"name": "repeats_earlier_runs", "ok": not diffs, "detail": detail}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be in [0, 2^63)")

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload run exceeded {RUN_TIMEOUT_S} s")
        return 3
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"perfbench exited with status {proc.returncode}")
        return 3
    try:
        run = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log("perfbench printed no result")
        return 3

    digest = source_digest()
    key = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    checks = run["checks"] + [check_repeat(bdir, digest, key, run["exact"])]
    correct = all(c["ok"] for c in checks)

    rev, dirty = git_state()
    manifest = {
        "git_rev": rev,
        "git_dirty": dirty,
        "source_sha256": digest,
        **run["manifest"],
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nodes": run["nodes"],
        "slots": run["slots"],
        "instances": run["instances"],
        "runs": run["runs"],
        "measured_s": run["measured_s"],
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }

    print(f"workload {args.workload} ({args.size}: {run['instances']} "
          f"instance(s) of {run['nodes']} nodes x {run['slots']} slot(s), "
          f"{run['runs']} run(s) in {run['measured_s']:.1f} s), "
          f"seed {args.seed}, trace {args.trace}")
    for name, m in run["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    tail = run["tail"]
    print(f"  sampling tail = p{tail['percentile']:g} of {tail['samples']} "
          f"samples ({tail['beyond']} beyond it)")
    if "not_applicable" in run:
        print("  reported as 0, layer not run or not exposed here: "
              + ", ".join(run["not_applicable"]))
    for c in checks:
        print(f"  check {c['name']:40s} {'ok' if c['ok'] else 'FAILED'}: "
              f"{c['detail']}")
    print("manifest " + json.dumps(manifest, sort_keys=True))

    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": run["metrics"]}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
