#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload emulate-cold --seed 1 --seconds 25 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that imports
the repository's packages through a replace directive, so it builds from
the checkout's sources. Everything the build and the runs write stays
under $CARGO_TARGET_DIR (default .bench_build) in the checkout: the Go
build cache, the binary, scratch stores, exact-count records and span
files. The last line of standard output is the benchmark's JSON result.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("emulate-cold", "warm-mixed", "verify-small")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def build(bench_dir, out):
    """Build the benchmark binary; return its path."""
    go = shutil.which("go")
    if go is None:
        fail("the go toolchain is not on PATH")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench")
    tmp = binary + ".new"
    try:
        subprocess.run(
            [go, "build", "-o", tmp, "."],
            cwd=bench_dir, env=env, check=True, timeout=BUILD_TIMEOUT_S,
            stdout=sys.stderr,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    # Exact counts are pinned per build: a new binary starts a new record.
    stamp = os.path.join(out, "build.sha256")
    new = digest(tmp)
    old = open(stamp).read() if os.path.exists(stamp) else ""
    if new != old:
        shutil.rmtree(os.path.join(out, "counts"), ignore_errors=True)
        with open(stamp, "w") as f:
            f.write(new)
    os.replace(tmp, binary)
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        fail("%s holds no go.mod: run from a checkout of the repository" % root)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(root, target, "perfbench")
    os.makedirs(out, exist_ok=True)
    binary = build(bench_dir, out)

    child = subprocess.Popen(
        [binary, "-workload", args.workload, "-seed", str(args.seed),
         "-seconds", str(args.seconds), "-trace", str(args.trace), "-out", out],
        cwd=root,
    )

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
