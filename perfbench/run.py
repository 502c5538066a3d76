#!/usr/bin/env python3
"""Build and run the awesymbolic benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/main.exe and bin/awesym.exe with dune, then runs the
benchmark; its last line of standard output is the JSON result.  Build
output goes to standard error.  Everything the run writes stays under
.perfbench-run/ in the checkout and is removed at the end.  See
perfbench/README.md.
"""

import os
import shutil
import signal
import subprocess
import sys

RUN_DIR = ".perfbench-run"
TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def main():
    root = os.getcwd()
    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin", "perfbench/dune")):
        return fail("run from the root of an awesymbolic checkout "
                    "(dune-project, lib/, bin/ and perfbench/ are needed)")
    prefix = []
    if shutil.which("dune") is None:
        if shutil.which("opam") is None:
            return fail("dune is not on PATH")
        prefix = ["opam", "exec", "--"]
    run_dir = os.path.join(root, RUN_DIR)
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("AWESYM_")}
    # Keep dune's shared cache and the native compiler's temporaries
    # inside the checkout.
    env.update(DUNE_CACHE="disabled", TMPDIR=tmp, XDG_CACHE_HOME=os.path.join(run_dir, "cache"))
    try:
        built = subprocess.run(
            prefix + ["dune", "build", "--root", ".", "perfbench/main.exe", "bin/awesym.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            return fail("build failed")
        exe = os.path.join("_build", "default", "perfbench", "main.exe")
        # Its own process group, so a timeout also stops the daemons the
        # benchmark spawned.
        proc = subprocess.Popen(prefix + [exe] + sys.argv[1:], env=env, start_new_session=True)
        try:
            return proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return fail("timed out after %d s" % TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
