#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 stratbench/selftest.py

1. Determinism: two runs at one seed must report identical values for
   every metric that does not measure time.
2. Each correctness check must fire: a run with one deliberately broken
   input (--sabotage CHECK) must exit 1 and name that check.
3. In a directory holding only BENCHMARK.json and stratbench/, the
   command must fail without printing a result.

Exits 0 when every test passes. Takes a few minutes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metrics that count work or cost rather than time, per --trace value.
DETERMINISTIC = {
    "0": ["mean_cost", "answered_frac", "final_cost_ratio",
          "learn_contexts"],
    "1": ["core.pib_moves", "core.pib_accept_frac", "core.pib_neighbors",
          "core.pao_quota_sum", "obs.events_per_ctx",
          "obs.trace_bytes_per_ctx", "obs.audit_bytes_per_ctx",
          "obs.windows", "robust.checkpoint_bytes", "robust.faults",
          "robust.retries", "robust.degraded", "datalog.facts",
          "datalog.lookups_per_query", "graph.arcs", "graph.experiments"],
}

SABOTAGE = [
    ("kb_serve", "kb_answers"),
    ("pib_learn", "pib_answers"),
    ("pib_learn", "pib_delta"),
    ("pib_learn", "pib_cost"),
    ("pib_learn", "pib_climbs"),
    ("pao_traced", "pao_answers"),
    ("pao_traced", "pao_cost"),
    ("pao_traced", "pao_trace"),
]


def run(workload, seed, trace, sabotage="", cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "stratbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", trace]
    if sabotage:
        cmd += ["--sabotage", sabotage]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          env=env, timeout=600)


def result_of(out):
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    failures = []

    for workload in ("kb_serve", "pib_learn", "pao_traced"):
        for trace in ("0", "1"):
            a, b = run(workload, 7, trace), run(workload, 7, trace)
            ra, rb = result_of(a), result_of(b)
            if a.returncode or b.returncode or not ra or not rb:
                failures.append(f"{workload} trace={trace}: run failed\n"
                                f"{a.stdout}{a.stderr}")
                continue
            for name in DETERMINISTIC[trace]:
                va = ra["metrics"][name]["value"]
                vb = rb["metrics"][name]["value"]
                if va != vb:
                    failures.append(f"{workload} {name}: {va} != {vb}")
            print(f"determinism {workload} trace={trace}: ok", flush=True)

    for workload, check in SABOTAGE:
        out = run(workload, 3, "0", sabotage=check)
        result = result_of(out)
        fired = (out.returncode == 1 and result is not None
                 and not result["correct"]
                 and f"CHECK FAILED {check}:" in out.stdout)
        if not fired:
            failures.append(f"sabotage {check} on {workload} did not fail "
                            f"the run (exit {out.returncode})")
        print(f"sabotage {check}: {'fires' if fired else 'MISSED'}",
              flush=True)

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "stratbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    out = run("kb_serve", 1, "0", cwd=bare, env=env)
    if out.returncode == 0 or out.stdout.strip():
        failures.append("a bare directory did not fail cleanly: exit "
                        f"{out.returncode}, stdout {out.stdout!r}")
    print(f"bare directory: exit {out.returncode}", flush=True)
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
