#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs every workload at its tiny size through the same code path as a real
run (perfbench/run.py --size tiny), untraced and traced, and asserts that:

  * the workloads the perfbench binary knows are exactly those in
    BENCHMARK.json;
  * the last output line has exactly the keys correct/attempted/failed/metrics,
    with every end-to-end (trace 0) or per-layer (trace 1) metric of
    BENCHMARK.json present with its unit and a numeric value;
  * every output check passes, including the repeat of an earlier run and,
    with a longer budget, the repeat of the instance set within one run;
  * a perturbed deterministic output trips the repeat check: after one
    recorded output is changed, the next run reports correct=false and
    exits non-zero.

    python3 perfbench/selftest.py

Uses the same build tree as run.py ($CARGO_TARGET_DIR or .bench_build).
"""

import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SEED = 11


def run(workload, trace, seconds=1):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace",
           str(trace), "--size", "tiny"]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stdout + p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)
            print(f"FAIL {what}")
        return cond

    exe = bench.build(bench.build_dir())
    if not expect(exe is not None, "benchmark builds"):
        return 1
    listed = subprocess.run([exe, "--list"], capture_output=True,
                            text=True).stdout.split()
    expect(listed == [w["name"] for w in spec["workloads"]],
           f"workload list {listed} matches BENCHMARK.json")

    for w in spec["workloads"]:
        name = w["name"]
        before = len(failures)
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            # The repeat run's longer budget makes an untraced run repeat
            # its instance set, so the in-run repetition check runs too.
            for attempt, seconds in (("first", 1), ("repeat", 6)):
                code, result, out = run(name, trace, seconds)
                label = f"{name} trace={trace} ({attempt} run)"
                if not expect(code == 0 and result is not None,
                              f"{label} exits 0 with a result"):
                    print(out)
                    continue
                expect(set(result) == {"correct", "attempted", "failed",
                                       "metrics"}, f"{label} result keys")
                expect(result["correct"] is True, f"{label} correct")
                expect(isinstance(result["attempted"], int)
                       and result["attempted"] >= 1, f"{label} attempted")
                if trace == 0 and attempt == "repeat":
                    manifest = json.loads(next(
                        line for line in out.splitlines()
                        if line.startswith("manifest "))[len("manifest "):])
                    expect(manifest["runs"] >= 2,
                           f"{label} repeats its instance set")
                metrics = result["metrics"]
                for m in spec[group]:
                    got = metrics.get(m["name"])
                    expect(got is not None and got.get("unit") == m["unit"]
                           and isinstance(got.get("value"), (int, float)),
                           f"{label} emits {m['name']} in {m['unit']}")
        if len(failures) == before:
            print(f"ok   {name}: every metric emitted with its unit, "
                  "checks pass")

    # Perturb one recorded deterministic output; the next run must fail.
    name = spec["workloads"][0]["name"]
    pattern = os.path.join(bench.build_dir(), "determinism", "*",
                           f"{name}-tiny-seed{SEED}-trace0.json")
    recorded = sorted(glob.glob(pattern), key=os.path.getmtime)
    if expect(recorded, f"recorded outputs for {name}"):
        path = recorded[-1]
        with open(path) as f:
            saved = json.load(f)
        perturbed = dict(saved)
        perturbed["sim.events"] = saved["sim.events"] + 1
        with open(path, "w") as f:
            json.dump(perturbed, f)
        try:
            code, result, out = run(name, 0)
            if expect(code != 0 and result is not None
                      and result["correct"] is False
                      and "sim.events" in out,
                      "perturbed sim.events trips the repeat check"):
                print("ok   a perturbed deterministic output makes the run "
                      "fail")
        finally:
            with open(path, "w") as f:
                json.dump(saved, f)

    print("selftest " + ("FAILED: %d problem(s)" % len(failures)
                         if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
