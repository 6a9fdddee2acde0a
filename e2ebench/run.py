#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the repository root:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --all [--seed N] [--seconds S]

Builds e2ebench/e2e.exe with dune into this checkout's _build/, runs one
workload and passes its output through: the last stdout line is the JSON
result. Exits non-zero without printing a result when the repository
sources or the OCaml toolchain are missing or the build fails.

--all runs every workload of BENCHMARK.json untraced and then traced,
printing each metric with its unit, and exits non-zero if any check failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "e2ebench", "e2e.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def call(cmd, timeout, env=None, stdout=None):
    """Run cmd in its own process group; on timeout kill the whole group.
    Returns (exit code, captured stdout or None)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 124, None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def build():
    """Build the benchmark executable or exit non-zero."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.exit("e2ebench: the repository sources (dune-project, lib/) are not next to it")
    dune = dune_command()
    if dune is None:
        sys.exit("e2ebench: dune not found on PATH")
    # The shared dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = call(dune + ["build", "--root", ROOT, "./e2ebench/e2e.exe"], BUILD_TIMEOUT_S, env=env,
                   stdout=sys.stderr)
    if code != 0 or not os.path.isfile(EXE):
        sys.exit("e2ebench: build failed")


def run_exe(args, capture=False):
    """Run the built executable with instrumentation settings from the
    environment (WX_*) removed, so the run sets its own."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("WX_")}
    stdout = subprocess.PIPE if capture else None
    return call([EXE] + list(args), RUN_TIMEOUT_S, env=env, stdout=stdout)


def run_all(seed, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    worst = 0
    for name in workloads:
        for trace in ("0", "1"):
            print(f"== {name} (trace {trace})", flush=True)
            code, _ = run_exe(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", trace])
            worst = worst or code
    sys.exit(worst)


def main():
    if "--all" not in sys.argv[1:]:
        build()
        sys.exit(run_exe(sys.argv[1:])[0])
    parser = argparse.ArgumentParser()
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    build()
    run_all(args.seed, args.seconds)


if __name__ == "__main__":
    main()
