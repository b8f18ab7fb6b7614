#!/usr/bin/env python3
"""Build the SimFS benchmark from source and run it.

Run from the root of a SimFS checkout:

    python3 perfbench/run.py --workload warm-scan --seed 1 --seconds 25 --trace 0

Every argument is passed to the benchmark program (see main.go). The Go
build cache, temporary files, the binary, the daemons' storage areas and
the span files all live under .bench_build/ in the checkout, so a run
reads and writes nothing outside it. The program's sources (the module at
the checkout root) must be present: without them the build fails and so
does the run. A SIGTERM stops the benchmark program before this script
exits.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s: run from a SimFS checkout" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = sys.argv[1:] + [
        "-work-dir", os.path.join(BUILD, "work"),
        "-span-dir", os.path.join(BUILD, "spans"),
    ]
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
