#!/usr/bin/env python3
"""Build and run the stratbench benchmark.

    python3 stratbench/run.py --workload kb_serve --seed 1 --seconds 10 \
        --trace 0

Configures and builds stratbench/ (which compiles ../src) in an optimised
build directory, then runs the benchmark binary. The binary prints every
metric by name and unit and, as its last line, one JSON object with
"correct", "attempted", "failed" and "metrics". Build output goes to
stderr. The build directory is $CARGO_TARGET_DIR when set, else
.bench_build at the repository root. The exit code is the binary's: 0
when every correctness check passed, 1 when one failed, 2 on a usage
or build error.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kb_serve", "pib_learn", "pao_traced")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def source_revision():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "stratbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(out_dir):
    """Configures (once) and builds the benchmark; True on success."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", out_dir, "--target", "stratbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--sabotage", default="",
                    help="break one correctness check on purpose")
    args = ap.parse_args()

    out_dir = build_dir()
    if not os.path.isdir(os.path.join(ROOT, "src")) or not build(out_dir):
        print("stratbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(out_dir, "stratbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", source_revision(),
           "--scratch-root", os.path.join(out_dir, "scratch")]
    if args.trace == "1":
        spans = os.path.join(out_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl")]
    if args.sabotage:
        cmd += ["--sabotage", args.sabotage]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("stratbench: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
