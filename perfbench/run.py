#!/usr/bin/env python3
"""Builds and runs the PRISMA benchmark for one workload.

    python3 perfbench/run.py --workload torch_small --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark is built from source (Release)
under $CARGO_TARGET_DIR, or .bench_build when unset, and every run gets a
private directory under it for its dataset, durable tier and socket. That
directory is removed on every exit path, and directories left by runs that
died are removed by the next run. The last line of stdout is the result
JSON printed by the benchmark binary (see perfbench/README.md).

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests instead.
"""
import argparse
import os
import secrets
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("torch_small", "tf_tiered")
# Bytes a run writes (dataset files or the durable tier), with slack for
# per-file block rounding.
DISK_NEED = {"torch_small": 160 << 20, "tf_tiered": 160 << 20}
CHILD_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no PRISMA source tree next to {HERE}")
    bdir = os.path.join(build_root(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(build_root(), "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", bdir, *gen,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", *targets])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (full log: {log_path})")
    return bdir


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def remove_stale_runs(runs):
    for name in os.listdir(runs):
        pid = name.split("-", 1)[0]
        if pid.isdigit() and not pid_alive(int(pid)):
            shutil.rmtree(os.path.join(runs, name), ignore_errors=True)


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def run(args):
    binary = os.path.join(build(["perfbench"]), "perfbench")
    runs = os.path.join(build_root(), "runs")
    os.makedirs(runs, exist_ok=True)
    remove_stale_runs(runs)
    free = shutil.disk_usage(runs).free
    need = 2 * DISK_NEED[args.workload] + (256 << 20)
    if free < need:
        fail(f"{free >> 20} MiB free under {runs}, need {need >> 20} MiB")

    run_dir = os.path.join(runs, f"{os.getpid()}-{secrets.token_hex(4)}")
    os.mkdir(run_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    if args.trace:
        traces = os.path.join(build_root(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}.spans")]
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)
    proc = None
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(out)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)


def selftest():
    bdir = build(["perfbench_tests"])
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TEST_TMPDIR=tmp + os.sep)
    return subprocess.run([os.path.join(bdir, "perfbench_tests")], env=env).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
