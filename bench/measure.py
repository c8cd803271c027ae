"""Closed-loop op execution, set-up probes and the run's environment record."""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import check
import hostspeed

P90_MIN_SAMPLES = 100
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
PROBE_TIMEOUT_S = 120


@dataclass
class OpResult:
    """One op run. ``seconds`` is ``wall_s`` scaled to the reference host
    (see ``hostspeed``); it equals ``wall_s`` until ``run_rounds`` scales it."""

    name: str
    variant: int
    wall_s: float
    report_bytes: int
    failures: list
    seconds: float


def execute(cli_run: Callable, op, spec_dir: str, reference: dict) -> OpResult:
    """Run one op in-process, timing only the CLI call, then check it."""
    argv = op.command(spec_dir)
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli_run(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error is a failed op, not a failed run
        traceback.print_exc(file=sys.stderr)
        code = None
    wall_s = time.perf_counter() - start
    text = out.getvalue()
    expected = reference.get(op.workload, {}).get(op.name, {}).get(
        str(op.variant))
    failures = check.op_failures(code, op.argv, text, expected)
    if failures:
        print(f"op {op.name} v{op.variant} failed: {'; '.join(failures)}",
              file=sys.stderr)
    return OpResult(op.name, op.variant, wall_s, len(text.encode()), failures,
                    seconds=wall_s)


@dataclass
class Rounds:
    results: list
    round_s: list[float]


def run_rounds(ops, execute_op: Callable, seconds: float,
               speed: hostspeed.HostSpeed,
               clock: Callable[[], float] = time.perf_counter) -> Rounds:
    """Closed loop, one client: whole rounds over ``ops``, as many as fit in
    ``seconds`` of wall time, judged by the last round; at least one.

    The reference kernel runs before the first op and after every op, and
    each op's time is scaled by the kernel times around it. A round's time
    is the sum of its ops' scaled times."""
    results: list[OpResult] = []
    kernel_s = [speed.kernel_s()]
    start = clock()
    last_round = 0.0
    while not results or clock() - start + last_round <= seconds:
        round_start = clock()
        for op in ops:
            results.append(execute_op(op))
            kernel_s.append(speed.kernel_s())
        last_round = clock() - round_start
    for result, scaled_s in zip(results, hostspeed.scaled(
            [r.wall_s for r in results], kernel_s)):
        result.seconds = scaled_s
    n = len(ops)
    return Rounds(results, [sum(r.seconds for r in results[i:i + n])
                            for i in range(0, len(results), n)])


def ops_per_s(rounds: Rounds, ops_per_round: int) -> float:
    """Ops per second in the median round."""
    return ops_per_round / statistics.median(rounds.round_s)


def op_percentiles(seconds_by_kind: dict[str, list[float]]) -> dict[str, float]:
    """Median op time, and the 90th percentile once at least ten samples lie
    beyond it (nearest rank, so from ``P90_MIN_SAMPLES`` samples on).

    The median is taken over op kinds, of each kind's median time. Rounds
    weigh every kind the same, and a run of long ops holds only a few of each;
    a median over all ops would then fall between two unlike kinds."""
    out = {"op_p50_s": statistics.median(
        statistics.median(v) for v in seconds_by_kind.values())}
    ordered = sorted(x for v in seconds_by_kind.values() for x in v)
    if len(ordered) >= P90_MIN_SAMPLES:
        out["op_p90_s"] = ordered[math.ceil(0.9 * len(ordered)) - 1]
    return out


def seconds_by_kind(results, field: str = "seconds") -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in results:
        out.setdefault(r.name, []).append(getattr(r, field))
    return out


def setup_seconds(spec_dir: str, workload: str, seed: int) -> float:
    """Wall time of a fresh process from start until the probe says ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, PROBE, spec_dir, workload, str(seed)],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return seconds


def scaled_setups(spec_dir: str, workload: str, seed: int, probes: int,
                  speed: hostspeed.HostSpeed) -> tuple[list[float], list[float]]:
    """Wall and scaled times of ``probes`` set-up probes, one after another,
    with the reference kernel run before the first and after each."""
    walls, kernel_s = [], [speed.kernel_s()]
    for _ in range(probes):
        walls.append(setup_seconds(spec_dir, workload, seed))
        kernel_s.append(speed.kernel_s())
    return walls, hostspeed.scaled(walls, kernel_s)


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _openblas():
    """Build string and thread count in effect of the OpenBLAS that numpy
    loaded; (None, None) for another BLAS."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    if not libs:
        return None, None
    lib = ctypes.CDLL(libs[0])
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), int(get_threads())
    return None, None


def git_sha(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", f"--git-dir={os.path.join(root, '.git')}", "rev-parse",
             "HEAD"], capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(root: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    config, threads = _openblas()
    return {"nproc": os.cpu_count(), "blas_vendor": blas.get("name"),
            "blas_version": blas.get("version"), "blas_config": config,
            "blas_threads": threads, "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version(),
            "git_sha": git_sha(root), "seed": seed}
