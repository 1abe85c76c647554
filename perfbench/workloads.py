"""The benchmark's workloads: which CLI commands each runs, at what size,
and the output checks that count toward the error rate.

Every workload has two timed stages. A run reports the median sample of
each by the workload's own name, and their sum as the end-to-end `run_s`:

- learn-traj / learn-grad: stage 1 is one `gen-data` (gen_data_s), run
  `gen_repeats` times per repetition because it is short; stage 2 is
  `train` (train_s).
- analyze: stage 1 is both `bifurcate` calls (sweep_s); stage 2 is one
  `control` call (control_s), run `control_repeats` times per repetition.

NOTES.md gives the reason for each workload and each size.
"""

from __future__ import annotations

import csv
import json
import math

HYSTERESIS = "sym-hysteresis"
TANKS = "two-tanks"
# analytic fold of dx/dt = u + x - x^3
TIPPING = 2.0 / math.sqrt(27.0)
# the fixed learned checkpoint `analyze` runs on, relative to the checkout root
CHECKPOINT = "perfbench/data/sym-hysteresis-field.json"
# sym-hysteresis protocol control range, which `bifurcate` sweeps
CONTROL_RANGE = (-1.0, 1.0)

SIZES = {
    "learn-traj": {"samples": 51, "gen_repeats": 3, "epochs": 2},
    # lr 0.003: at the recipe's 0.01 the first epoch already reaches the
    # loss floor, so "final loss below the first epoch's" would test noise
    "learn-grad": {"samples": 51, "gen_repeats": 3, "epochs": 10, "lr": 0.003},
    "analyze": {"points": 401, "scan": 400, "control_repeats": 3, "targets": 4, "trials": 1},
}


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def learn(system: str):
    def run(rep, size: dict) -> None:
        work = rep.work
        for _ in range(size["gen_repeats"]):
            with rep.stage("stage1_s", "gen_data_s"):
                rep.cli(["gen-data", "--system", system, "--samples", str(size["samples"])], work)
        train = ["train", "--system", system, "--data", str(work / f"{system}-data"),
                 "--epochs", str(size["epochs"])]
        if "lr" in size:
            train += ["--lr", str(size["lr"])]
        with rep.stage("stage2_s", "train_s"):
            ok = rep.cli(train, work)
        loss = first = math.nan
        if ok:
            report = _read_json(work / f"{system}-train-report.json")
            loss, first = report["best_loss"], report["loss_history"][0]
            rep.quality["final_loss"] = loss
        rep.check("final loss finite and below the first epoch's",
                  math.isfinite(loss) and loss < first,
                  f"best_loss {loss!r}, first epoch {first!r}")

    return run


def _bistable_at_zero(csv_path, tipping_points) -> tuple[bool, str]:
    """Two stable equilibria at the swept control nearest u = 0, inside a
    window whose tipping points lie on both sides of 0."""
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    u0 = min((float(r["control_value"]) for r in rows), key=abs)
    stable = sum(1 for r in rows if float(r["control_value"]) == u0 and r["stability"] == "stable")
    window = any(t < 0 for t in tipping_points) and any(t > 0 for t in tipping_points)
    return stable >= 2 and window, f"{stable} stable equilibria at u={u0!r}; tipping {tipping_points}"


def analyze(rep, size: dict) -> None:
    checkpoint = str(rep.root / CHECKPOINT)
    sweep = ["--system", HYSTERESIS, "--points", str(size["points"]), "--scan", str(size["scan"])]
    learned, oracle, trials = rep.work / "learned", rep.work / "oracle", rep.work / "control"
    for d in (learned, oracle, trials):
        d.mkdir(parents=True, exist_ok=True)

    with rep.stage("stage1_s", "sweep_s"):
        learned_ok = rep.cli(["bifurcate", *sweep, "--field", checkpoint], learned)
        oracle_ok = rep.cli(["bifurcate", *sweep, "--oracle"], oracle)

    ok, detail = False, "bifurcate failed"
    if learned_ok:
        tips = _read_json(learned / f"{HYSTERESIS}-tipping.json")["tipping_points"]
        ok, detail = _bistable_at_zero(learned / f"{HYSTERESIS}-bifurcation.csv", tips)
    rep.check("learned sweep has a bistable window around u = 0", ok, detail)

    err, detail = math.inf, "bifurcate failed"
    if oracle_ok:
        tips = sorted(_read_json(oracle / f"{HYSTERESIS}-tipping.json")["tipping_points"])
        if len(tips) == 2:
            err = max(abs(tips[0] + TIPPING), abs(tips[1] - TIPPING))
            rep.quality["tipping_err"] = err
        detail = f"tipping {tips} vs ±{TIPPING!r}"
    cell = (CONTROL_RANGE[1] - CONTROL_RANGE[0]) / (size["points"] - 1)
    rep.check("oracle tipping points within one grid cell of ±2/sqrt(27)", err <= cell, detail)

    control = ["control", "--system", HYSTERESIS, "--field", checkpoint,
               "--targets", str(size["targets"]), "--trials", str(size["trials"])]
    if "t_per_target" in size:
        control += ["--t-per-target", str(size["t_per_target"])]
    for _ in range(size["control_repeats"]):
        with rep.stage("stage2_s", "control_s"):
            ok = rep.cli(control, trials)
        nrmse = math.nan
        if ok:
            per_dim = _read_json(trials / f"{HYSTERESIS}-control-summary.json")["nrmse_mean"]
            nrmse = sum(per_dim) / len(per_dim)
            rep.quality["nrmse_mean"] = nrmse
        rep.check("control nrmse_mean finite", math.isfinite(nrmse), f"nrmse_mean {nrmse!r}")


WORKLOADS = {
    "learn-traj": learn(HYSTERESIS),
    "learn-grad": learn(TANKS),
    "analyze": analyze,
}
