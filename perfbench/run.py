#!/usr/bin/env python3
"""Build and run the Hybrid2 simulator benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stream|chase|grid-queued8 \
        [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` package (release, into $CARGO_TARGET_DIR, default
`.bench_build`), prints a provenance header, runs the golden gate in its
own process, then runs the measurement in another. The measurement's last
stdout line is the JSON result; see perfbench/README.md for the metrics.
Exits non-zero without a result if the build or the measurement fails.
"""

import argparse
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream", "chase", "grid-queued8")
DEFAULT_SEED = 2020
# What the measured program is built from; hashed into the header so two
# results can be matched to the same source even outside git.
SOURCE_PATHS = ("Cargo.toml", "Cargo.lock", "rust-toolchain.toml", "crates", "src", "goldens")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    h = hashlib.sha256()
    for top in SOURCE_PATHS:
        base = ROOT / top
        files = sorted(p for p in base.rglob("*") if p.is_file()) if base.is_dir() else [base]
        for p in files:
            if p.is_file() and "target" not in p.relative_to(ROOT).parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance():
    commit = tool_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "none"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    print(f"host: {platform.node()} ({cpu_model()}), nproc {nproc}")
    print(f"rustc: {tool_output(['rustc', '--version'])}")
    print(f"commit: {commit}, source digest {source_digest()}")
    sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 < args.seconds <= 600 or args.seed < 0:
        ap.error("--seconds must be in (0, 600] and --seed non-negative")

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        log("perfbench: build failed")
        return 1
    binary = str(target / "release" / "perfbench")

    provenance()
    gate = subprocess.run([binary, "gate", "--root", str(ROOT)], cwd=ROOT,
                          capture_output=True, text=True)
    print(gate.stdout, end="", flush=True)
    sys.stderr.write(gate.stderr)
    run = subprocess.run(
        [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--gate", "ok" if gate.returncode == 0 else "fail"],
        cwd=ROOT,
    )
    if run.returncode != 0:
        log(f"perfbench: measurement exited with {run.returncode}")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
