"""Paths, the build, and process helpers shared by the benchmark scripts.

Everything the benchmark writes goes under `.bench_build/` at the root of
the checkout: the CMake build of `perfbench/` (which compiles the
program's own `src/` and `tools/`) and the generated workloads.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
WORK = os.path.join(OUT, "work")
TCSM = os.path.join(BUILD, "tcsm_tools", "tcsm")
HARNESS = os.path.join(BUILD, "perfbench_replay")


class BenchError(Exception):
    """A failure that ends the run without a result."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness and the `tcsm` tool."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no program sources at %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd)
    run_checked(["cmake", "--build", BUILD, "-j", jobs,
                 "--target", "perfbench_replay", "tcsm"])


def run_checked(cmd, cwd=None, quiet=False):
    """Runs `cmd` with its stdout sent to our stderr (or dropped when
    `quiet`); raises on failure."""
    proc = subprocess.run(cmd, cwd=cwd, stderr=sys.stderr,
                          stdout=subprocess.DEVNULL if quiet else sys.stderr)
    if proc.returncode != 0:
        raise BenchError("command failed (%d): %s" %
                         (proc.returncode, " ".join(cmd)))


def run_output(cmd, cwd=None):
    """Runs `cmd` and returns (stdout, peak resident bytes of the child)."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=sys.stderr)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError("command failed (%d): %s" %
                         (proc.returncode, " ".join(cmd)))
    return out.decode(), usage.ru_maxrss * 1024  # ru_maxrss is in KiB
