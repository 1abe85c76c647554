"""stabledyn benchmark: run one workload for a fixed time and print metrics.

    python3 perfbench/run.py --workload learn-traj|learn-grad|analyze \
        --seed N --seconds S --trace 0|1

Each repetition runs in a fresh Python process (`rep.py`) that drives the
real CLI in-process, so every repetition pays the program's own set-up.
Repetitions start until the next one would overrun `--seconds` (at least
two run). With `--trace 0` every repetition is untraced and the result
holds the end-to-end metrics; with `--trace 1` repetitions alternate
traced / untraced, the result holds the per-layer metrics (medians of the
traced repetitions) and the tracing overhead is `run_s` of the traced
minus that of the untraced repetitions. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A full record, with machine
facts and every repetition, goes to perfbench/out/result-<workload>.json,
and the spans of traced repetitions to perfbench/out/trace/.

The benchmark sets no BLAS thread variable: it measures the program under
the environment it is started in.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("learn-traj", "learn-grad", "analyze")
MIN_REPS = 2
# no repetition starts past this point, so a run ends well inside 180 s
LAST_START_S = 120.0
REP_TIMEOUT_S = 170.0

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"), ("pass_rate", "ratio")]
STAGES = ("stage1_s", "stage2_s")

# units of the workloads' own figures, printed by name on every run
NAMED_UNITS = {"setup_s": "s", "gen_data_s": "s", "train_s": "s", "final_loss": "loss",
               "sweep_s": "s", "tipping_err": "control", "control_s": "s",
               "nrmse_mean": "ratio", "peak_rss_mb": "MB", "error_rate": "ratio"}


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def spawn_rep(workload: str, seed: int, index: int, traced: bool, deadline: float) -> dict:
    """Run rep.py once in a fresh process; raises RuntimeError on failure."""
    work = OUT / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_file = OUT / f"rep-{workload}.json"
    result_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
           "--rep", str(index), "--traced", str(int(traced)), "--work", str(work),
           "--result", str(result_file)]
    if traced:
        (OUT / "trace").mkdir(exist_ok=True)
        cmd += ["--trace-file", str(OUT / "trace" / f"{workload}-rep{index}.npz")]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([*cmd, "--spawned-ns", str(monotonic_ns())], capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"repetition {index} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result_file) as fh:
        return json.load(fh)


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def stage_median(reps: list[dict], stage: str) -> float:
    """Median over every sample of `stage` in these repetitions."""
    return _median([t for r in reps for t in r["stages"].get(stage, [])])


def run_time(reps: list[dict]) -> float:
    """One pass of the workload's commands: the sum of its stage medians."""
    return sum(stage_median(reps, stage) for stage in STAGES)


def aggregate(reps: list[dict], trace: bool) -> dict:
    """Result record of a run from its repetitions."""
    attempted = sum(len(r["commands"]) + len(r["checks"]) for r in reps)
    failed = (sum(c["rc"] != 0 for r in reps for c in r["commands"])
              + sum(not c["ok"] for r in reps for c in r["checks"]))
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    named = {"setup_s": _median([r.get("setup_s") for r in plain])}
    for stage in STAGES:
        named[reps[0]["stage_names"][stage]] = stage_median(plain, stage)
    for name in reps[0]["quality"]:
        named[name] = _median([r["quality"].get(name) for r in reps])
    named["peak_rss_mb"] = _median([r.get("peak_rss_mb") for r in plain])
    named["error_rate"] = failed / attempted
    if trace:
        from layers import PER_LAYER

        layers = {name: _median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        untraced_s = run_time(plain)
        layers["trace.overhead_s"] = run_time(traced) - untraced_s
        layers["trace.overhead_share"] = layers["trace.overhead_s"] / untraced_s
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": named["setup_s"],
            "run_s": run_time(plain),
            "peak_rss_mb": named["peak_rss_mb"],
            "pass_rate": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "named": named}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    deadline = start + REP_TIMEOUT_S
    OUT.mkdir(exist_ok=True)
    reps: list[dict] = []
    walls: list[float] = []
    while True:
        index = len(reps)
        t0 = time.monotonic()
        try:
            reps.append(spawn_rep(args.workload, args.seed, index,
                                  bool(args.trace) and index % 2 == 0, deadline))
        except RuntimeError as err:
            print(f"benchmark failed: {err}", file=sys.stderr)
            return 1
        walls.append(time.monotonic() - t0)
        next_end = time.monotonic() - start + statistics.median(walls)
        if len(reps) >= MIN_REPS and (next_end > args.seconds or next_end > LAST_START_S):
            break

    result = aggregate(reps, bool(args.trace))
    machine = reps[0]["machine"]
    record = {"args": vars(args), "machine": machine, **result, "reps": reps}
    with open(OUT / f"result-{args.workload}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    mode = "traced/untraced alternating" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {len(reps)} repetitions ({mode})")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, value in result["named"].items():
        print(f"  {name:<14} {value:.6g} {NAMED_UNITS[name]}")
    for r in reps:
        for c in r["commands"]:
            if c["rc"] != 0:
                print(f"  FAILED command {' '.join(c['argv'])}: rc {c['rc']} {c['error'] or c['stderr']}")
        for c in r["checks"]:
            if not c["ok"]:
                print(f"  FAILED check {c['name']}: {c['detail']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
