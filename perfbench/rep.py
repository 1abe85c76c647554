"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N --rep I --traced 0|1 \
        --spawned-ns T --work DIR --result FILE [--trace-file FILE]

Imports stabledyn from the checkout's `src/` (never from an installed copy),
drives the CLI in-process through `cli.main(argv)` with `--threads 1`, and
writes one JSON result. BLAS threading is left as the environment sets it;
the thread count in effect is read, never set. `run.py` starts this script.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from layers import HOOKS, QUALITY, layer_metrics
from tracer import MODULES, Tracer
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def monotonic_ns() -> int:
    # CLOCK_MONOTONIC is system-wide, so stamps compare across processes
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def import_program(root: Path):
    """Import every stabledyn module from `root/src`; return the cli module."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    for short in MODULES:
        importlib.import_module(f"stabledyn.{short}")
    where = Path(sys.modules["stabledyn"].__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"stabledyn imported from {where}, not from {src}")
    return sys.modules["stabledyn.cli"]


_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads():
    """Threads the bundled OpenBLAS uses now, or None when it cannot be read."""
    import numpy

    libdirs = (os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs"),
               os.path.join(os.path.dirname(numpy.__file__), ".dylibs"))
    for libdir in libdirs:
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in _BLAS_THREAD_SYMBOLS:
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": platform.machine(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Rep:
    """Runs CLI commands for one repetition and records times and checks.

    Commands run inside `stage(...)` blocks; each block is one timing sample
    of that stage (the sum of its commands' times, excluding the checks).
    """

    def __init__(self, cli, root: Path, work: Path, seed: int):
        self.cli_main = cli.main
        self.root, self.work, self.seed = root, work, seed
        self.commands: list[dict] = []
        self.checks: list[dict] = []
        self.stages: dict[str, list[float]] = {}
        self.stage_names: dict[str, str] = {}
        self.quality: dict[str, float] = {}
        self.first_command_ns = None
        self._sample = 0.0

    @contextlib.contextmanager
    def stage(self, stage: str, name: str):
        """Time the commands in the block as one sample of `stage`, which
        this workload also reports by its own `name` (e.g. train_s)."""
        self._sample = 0.0
        yield
        self.stages.setdefault(stage, []).append(self._sample)
        self.stage_names[stage] = name

    def cli(self, argv: list[str], out: Path) -> bool:
        """Run one CLI command; True when it exits 0."""
        full = [*argv, "--out", str(out), "--seed", str(self.seed), "--threads", "1"]
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        if self.first_command_ns is None:
            self.first_command_ns = monotonic_ns()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.cli_main(full)
        except Exception:  # a traceback is a failed command, not a failed benchmark
            rc, error = None, traceback.format_exc(limit=-3)
        seconds = time.perf_counter() - t0
        self._sample += seconds
        self.commands.append({"argv": full, "rc": rc, "seconds": seconds, "error": error,
                              "stdout": stdout.getvalue()[-400:], "stderr": stderr.getvalue()[-400:]})
        return rc == 0

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})


def run_rep(cli, workload: str, seed: int, size: dict, work: Path, traced: bool = False,
            run_id: str = "", trace_file: Path | None = None) -> dict:
    """Run one repetition in this process; returns its result record."""
    work.mkdir(parents=True, exist_ok=True)
    rep = Rep(cli, ROOT, work, seed)
    tracer = None
    if traced:
        tracer = Tracer(run_id)
        tracer.install(HOOKS)
    try:
        WORKLOADS[workload](rep, size)
    finally:
        if tracer is not None:
            tracer.uninstall()
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer)
        for metric, named in QUALITY.items():
            layers[metric] = rep.quality.get(named, 0.0)
        if trace_file is not None:
            tracer.save(trace_file)
    return {
        "workload": workload, "seed": seed, "traced": traced, "run_id": run_id,
        "commands": rep.commands, "checks": rep.checks, "stages": rep.stages,
        "stage_names": rep.stage_names, "quality": rep.quality, "layers": layers,
        "first_command_ns": rep.first_command_ns,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    cli = import_program(ROOT)
    result = run_rep(cli, args.workload, args.seed, SIZES[args.workload], args.work,
                     traced=bool(args.traced), run_id=f"{args.workload}-{args.seed}-{args.rep}",
                     trace_file=args.trace_file)
    result["setup_s"] = (result["first_command_ns"] - args.spawned_ns) * 1e-9
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine_facts()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
