#!/usr/bin/env python3
"""Builds and runs the stird benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig15-exec --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve-mixed --trace 1   # per-layer run
    python3 perfbench/run.py --selftest                          # benchmark tests
    python3 perfbench/run.py --write-refs                        # re-agree refs

The first call configures and builds perfbench/ (with the stird library
from src/) into $CARGO_TARGET_DIR, default .bench_build; later calls only
rebuild what changed. The last line of stdout is the result JSON.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def run_logged(cmd, log):
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build(targets):
    build = build_dir() / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    log = build / "build.log"
    if not (build / "CMakeCache.txt").exists():
        if run_logged(["cmake", "-S", str(BENCH), "-B", str(build),
                       "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            fail(f"cmake configure failed; see {log}")
    for target in targets:
        if run_logged(["cmake", "--build", str(build), "--target", target,
                       "-j", "4"], log) != 0:
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
            fail(f"build of {target} failed; see {log}")
    return build


def provenance_env():
    """The machine block's commit and a digest of the library sources."""
    env = dict(os.environ)
    commit = "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    env["PERFBENCH_COMMIT"] = commit
    env["PERFBENCH_SRC_DIGEST"] = digest.hexdigest()[:16]
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-refs", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"stird sources not found at {ROOT / 'src'}", 2)
    work = build_dir() / "work"
    # Compiler temporaries (the build, synthesized binaries) stay in the tree.
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    refs = BENCH / "refs" / "default.tsv"

    if args.selftest:
        build_path = build(["perfbench_tests"])
        env = dict(os.environ, PERFBENCH_BENCHMARK_JSON=str(ROOT / "BENCHMARK.json"),
                   PERFBENCH_REFS=str(refs))
        return subprocess.run([str(build_path / "perfbench_tests")], env=env,
                              cwd=str(build_path)).returncode

    build_path = build(["perfbench"])
    binary = str(build_path / "perfbench")
    # Synthesized fig15 binaries are compiled once per checkout, here, so
    # that no measured run pays for them. A traced fig15-exec run counts a
    # binary that is missing as a failure.
    if run_logged([binary, "--prepare", "--work-dir", str(work)],
                  build_path / "build.log") != 0:
        print(f"perfbench: a synthesized binary failed to build; see "
              f"{build_path / 'build.log'}", file=sys.stderr)
    if args.write_refs:
        return subprocess.run([binary, "--write-refs", str(refs),
                               "--work-dir", str(work)]).returncode
    if not args.workload:
        parser.error("--workload is required")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--refs", str(refs)]
    try:
        return subprocess.run(cmd, env=provenance_env(), cwd=str(ROOT),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
