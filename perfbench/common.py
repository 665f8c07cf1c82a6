"""Paths, child-process handling and the machine record shared by the
benchmark's scripts.  Standard library only, so the orchestrator starts
without importing numpy."""

from __future__ import annotations

import ctypes
import importlib.metadata
import math
import os
import platform
import subprocess
import threading
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# the parts of the acceptance_sweeps workload, each timed in a traced run
SWEEPS = ("remez_trend", "density_probe", "newman_search")


def source_present() -> bool:
    return (SRC / "muntzlab" / "__init__.py").is_file()


def chebyshev_t(n: int, x: float) -> float:
    """T_n(x) from its cos/cosh form, apart from the program's recurrence."""
    if abs(x) <= 1.0:
        return math.cos(n * math.acos(x))
    return (1.0 if x > 0 or n % 2 == 0 else -1.0) * math.cosh(n * math.acosh(abs(x)))


def child_env() -> dict[str, str]:
    """Environment for every child: the checkout's sources first on the
    path.  BLAS threading is left at the program's default."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(argv, timeout: float, stdout=subprocess.PIPE,
              stderr=None) -> tuple[int, bytes, int]:
    """Run argv to its end; return (exit code, stdout bytes, peak RSS in KiB).

    The child is reaped with wait4 so that its own peak RSS is read, not
    the maximum over every child this process has had.  A child still
    running after `timeout` seconds is killed, and still reaped.
    """
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr,
                            env=child_env(), cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read() if stdout is subprocess.PIPE else b""
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        if proc.stdout is not None:
            proc.stdout.close()
    # wait4 reaped the child; tell Popen so it never waits on the pid again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    """nproc, interpreter and library versions, and BLAS threading, read in
    a process that has numpy loaded."""
    import numpy as np

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
