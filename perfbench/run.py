#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources, then run it.

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 12 --trace 0

Everything the build writes (compiler cache, binary, spans) stays in
.bench_build/ at the checkout root. The last line of standard output is the
result JSON; the exit code is non-zero, with no result, when the build or
the run fails.
"""
import os
import signal
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kwargs):
    """Run cmd to completion; on timeout or interruption stop it and wait."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Path(__file__).resolve().parent
    root = bench.parent
    build = root / ".bench_build"
    env = dict(os.environ)
    env.update(
        GOCACHE=str(build / "gocache"),
        GOPATH=str(build / "gopath"),
        GOENV="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        XDG_CONFIG_HOME=str(build / "config"),
    )
    exe = build / "perfbench"
    if run(["go", "build", "-o", str(exe), "."], BUILD_TIMEOUT_S,
           cwd=bench, env=env, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return run([str(exe)] + sys.argv[1:], RUN_TIMEOUT_S, cwd=root, env=env)


if __name__ == "__main__":
    sys.exit(main())
