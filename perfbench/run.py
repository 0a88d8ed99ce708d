#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

The Go program in this directory is built from source into .bench_build/
(with its build cache there too) and run with the same arguments. Its last
line of standard output is the result JSON. With --trace 1 the program also
writes the traced run's spans as Chrome trace JSON, which this script feeds
to cmd/tracetool summarize as a format check (summary on standard error).
Exits non-zero, without a result line, if the build or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOPATH": os.path.join(OUT, "gopath"),
        "GOTMPDIR": os.path.join(OUT, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(OUT, "config"),
        "GOENV": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    env.pop("GOMAXPROCS", None)
    return env


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(env, target, pkg):
    res = subprocess.run(["go", "build", "-o", target, pkg], cwd=HERE, env=env)
    return res.returncode == 0


def workload_of(args):
    for i, a in enumerate(args):
        if a in ("--workload", "-workload") and i + 1 < len(args):
            return args[i + 1]
    return ""


def traced(args):
    for i, a in enumerate(args):
        if a in ("--trace", "-trace") and i + 1 < len(args):
            return args[i + 1] == "1"
    return False


def main():
    args = sys.argv[1:]
    env = go_env()
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(OUT, d), exist_ok=True)
    binary = os.path.join(OUT, "perfbench")
    if not build(env, binary, "."):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run_env = dict(env)
    run_env["PERFBENCH_COMMIT"] = commit()
    res = subprocess.run([binary] + args, cwd=ROOT, env=run_env, stdout=subprocess.PIPE, text=True)
    if res.returncode != 0:
        sys.stdout.write(res.stdout)
        return res.returncode
    if traced(args):
        tool = os.path.join(OUT, "tracetool")
        trace = os.path.join(OUT, "trace-%s.json" % workload_of(args))
        if not build(env, tool, "repro/cmd/tracetool"):
            print("perfbench: tracetool build failed", file=sys.stderr)
            return 1
        chk = subprocess.run([tool, "summarize", trace], cwd=ROOT, env=env, stdout=sys.stderr)
        if chk.returncode != 0:
            print("perfbench: tracetool cannot read %s" % trace, file=sys.stderr)
            return 1
    sys.stdout.write(res.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
