"""Training objectives, the mini-batch loop, and k-fold cross validation.

Two objectives are supported. Trajectory matching integrates the model
from each trajectory's initial state and penalizes the mean squared gap to
the observed samples, with gradients taken through the unrolled RK4
recursion. Gradient matching skips the solver: it penalizes the gap
between the model vector field and finite-difference derivative estimates
at the observed states. Batches are whole trajectories in both cases.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import nnet
from .field import StructuredField, eval_velocity, velocity_cached, velocity_vjp_cached
from .integrate import (DatasetError, TimeGrid, Trajectory, finite_diff, rk4_solve_batch,
                        rk4_solve_unrolled_grad)

TRAJ_MATCHING = "traj-matching"
GRAD_MATCHING = "grad-matching"


@dataclass(frozen=True)
class TrainConfig:
    objective: str
    epochs: int
    batch_size: int
    lr0: float
    seed: int = 0
    folds: int = 10
    restarts: int = 3
    substeps: int = 1          # RK4 steps per sample interval (traj matching)

    def __post_init__(self):
        if self.objective not in (TRAJ_MATCHING, GRAD_MATCHING):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.epochs < 1 or self.batch_size < 1 or self.folds < 2:
            raise ValueError("invalid training configuration")


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, batch: int, detail: str):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}: {detail}")
        self.epoch = epoch
        self.batch = batch


# --- objectives --------------------------------------------------------------

class GradMatchingObjective:
    """Mean squared error between finite-difference derivative estimates and
    the model vector field at the observed states."""

    def __init__(self, trajectories: list[Trajectory]):
        if not trajectories:
            raise ValueError("empty batch")
        xs, us, ds = [], [], []
        for traj in trajectories:
            deriv = finite_diff(traj)
            xs.append(traj.states)
            ds.append(deriv)
            us.append(np.broadcast_to(traj.control, (len(traj.times), len(traj.control))))
        self._x = [np.asarray(a) for a in xs]
        self._u = [np.asarray(a) for a in us]
        self._d = [np.asarray(a) for a in ds]
        self.n_traj = len(trajectories)

    def _gather(self, idxs):
        if idxs is None:
            idxs = range(self.n_traj)
        x = np.concatenate([self._x[i] for i in idxs])
        u = np.concatenate([self._u[i] for i in idxs])
        d = np.concatenate([self._d[i] for i in idxs])
        return x, u, d

    def loss(self, field: StructuredField, idxs=None) -> float:
        x, u, d = self._gather(idxs)
        res = d - eval_velocity(field, x, u)
        return float(np.mean(np.sum(res * res, axis=1)))

    def loss_and_grad(self, field: StructuredField, idxs=None):
        x, u, d = self._gather(idxs)
        v, cache = velocity_cached(field, x, u)
        res = d - v
        loss = float(np.mean(np.sum(res * res, axis=1)))
        cot = (-2.0 / len(x)) * res
        return loss, velocity_vjp_cached(field, cache, cot)[0]


class TrajMatchingObjective:
    """Mean squared error between observed states and model trajectories
    simulated from each observed initial state, on the evenly spaced grid of
    its sample times; a trajectory sampled off that grid is a DatasetError."""

    def __init__(self, trajectories: list[Trajectory], substeps: int = 1):
        if not trajectories:
            raise ValueError("empty batch")
        self.substeps = int(substeps)
        # group by time grid so each group batches into one solver call
        self._groups: dict[tuple, dict] = {}
        for traj in trajectories:
            key = (len(traj.times), float(traj.times[0]), float(traj.times[-1]))
            grp = self._groups.setdefault(
                key, {"x0": [], "u": [], "obs": [], "times": [], "ids": [], "members": []}
            )
            grp["times"].append(traj.times)
            grp["ids"].append(traj.traj_id)
            grp["x0"].append(traj.states[0])
            grp["u"].append(traj.control)
            grp["obs"].append(traj.states)
            grp["members"].append(len(grp["members"]))
        self._index = []  # traj order -> (group key, row)
        for key, grp in self._groups.items():
            _check_even(key, grp.pop("times"), grp.pop("ids"))
            grp["x0"] = np.asarray(grp["x0"])
            grp["u"] = np.asarray(grp["u"])
            grp["obs"] = np.asarray(grp["obs"])  # (B, n, d)
            for row in grp["members"]:
                self._index.append((key, row))
        self.n_traj = len(self._index)

    def _grids(self, key):
        n, t0, t1 = key
        return TimeGrid(t0, t1, (n - 1) * self.substeps)

    def _batches(self, idxs):
        if idxs is None:
            idxs = range(self.n_traj)
        chosen: dict[tuple, list[int]] = {}
        for i in idxs:
            key, row = self._index[i]
            chosen.setdefault(key, []).append(row)
        for key, rows in chosen.items():
            grp = self._groups[key]
            yield key, grp["x0"][rows], grp["u"][rows], grp["obs"][rows]

    def loss(self, field: StructuredField, idxs=None) -> float:
        total = 0.0
        count = 0
        for key, x0, u, obs in self._batches(idxs):
            count += obs.shape[0] * obs.shape[1]
            if key[0] == 1:
                continue  # only the initial state: matched by construction
            grid = self._grids(key)
            states = rk4_solve_batch(lambda x, uu: eval_velocity(field, x, uu), x0, u, grid)
            pred = states[:, :: self.substeps, :]
            res = pred - obs
            total += float(np.sum(res * res))
        return total / count

    def loss_and_grad(self, field: StructuredField, idxs=None):
        # two passes: residuals fix the 1/n scale, then one reverse sweep
        plan = list(self._batches(idxs))
        count = sum(obs.shape[0] * obs.shape[1] for _, _, _, obs in plan)
        total = 0.0
        grad = np.zeros_like(field.params)
        for key, x0, u, obs in plan:
            if key[0] == 1:
                continue
            grid = self._grids(key)
            n_fine = grid.n_steps
            states = rk4_solve_batch(lambda x, uu: eval_velocity(field, x, uu), x0, u, grid)
            res = states[:, :: self.substeps, :] - obs
            total += float(np.sum(res * res))
            cots = np.zeros((len(x0), n_fine + 1, x0.shape[1]))
            cots[:, :: self.substeps, :] = (2.0 / count) * res
            _, g = rk4_solve_unrolled_grad(field, x0, u, grid, cots)
            grad += g
        return total / count, grad


def _check_even(key, times, ids) -> None:
    """Refuse a trajectory of a (n, t0, t1) group whose times are off the
    evenly spaced grid by more than 1e-9 of its spacing."""
    n, t0, t1 = key
    if n > 1:
        grid = TimeGrid(t0, t1, n - 1)
        off = np.abs(np.asarray(times) - grid.times()).max(axis=1) > 1e-9 * grid.h
        if off.any():
            raise DatasetError(f"trajectory {ids[int(np.argmax(off))]} is not evenly spaced "
                               "in time; trajectory matching integrates on an even grid")


def make_objective(config: TrainConfig, trajectories: list[Trajectory]):
    if config.objective == GRAD_MATCHING:
        return GradMatchingObjective(trajectories)
    return TrajMatchingObjective(trajectories, substeps=config.substeps)


# --- k-fold splitting --------------------------------------------------------

def kfold_split(n_trajectories: int, k: int, seed: int):
    """Disjoint covering folds at whole-trajectory granularity.

    Returns a list of (train_indices, val_indices) pairs; fold sizes differ
    by at most one and the partition is deterministic per seed.
    """
    if n_trajectories < k:
        raise DatasetError(f"cannot split {n_trajectories} trajectories into {k} folds")
    perm = np.random.default_rng(seed).permutation(n_trajectories)
    folds = np.array_split(perm, k)
    out = []
    for i, val in enumerate(folds):
        train = np.concatenate([folds[j] for j in range(k) if j != i])
        out.append((np.sort(train), np.sort(val)))
    return out


# --- training loop -----------------------------------------------------------

@dataclass
class TrainResult:
    field: StructuredField
    loss_history: list[float]
    lr_trace: list[float]
    best_loss: float
    best_val_loss: float | None = None
    wall_time: float = 0.0
    seed: int = 0

    def report(self, config: TrainConfig) -> dict:
        return {
            "config": {
                "objective": config.objective,
                "epochs": config.epochs,
                "batch_size": config.batch_size,
                "lr0": config.lr0,
                "seed": self.seed,
                "substeps": config.substeps,
            },
            "loss_history": self.loss_history,
            "lr_trace": self.lr_trace,
            "best_loss": self.best_loss,
            "best_val_loss": self.best_val_loss,
            "wall_time_s": self.wall_time,
        }


def train(
    field: StructuredField,
    trajectories: list[Trajectory],
    config: TrainConfig,
    val_trajectories: list[Trajectory] | None = None,
) -> TrainResult:
    """Mini-batch Adam over shuffled whole trajectories.

    Tracks the best parameters by full-data loss; when a validation set is
    given, also records the best validation loss seen at any epoch.
    """
    t_start = time.perf_counter()
    objective = make_objective(config, trajectories)
    val_objective = (
        make_objective(config, val_trajectories) if val_trajectories else None
    )

    params = field.params
    adam = nnet.adam_init(len(params), config.lr0)
    plateau = nnet.PlateauState(lr=config.lr0)
    rng = np.random.default_rng(config.seed)
    n = objective.n_traj

    history: list[float] = []
    lr_trace: list[float] = []
    best_loss = math.inf
    best_params = params.copy()
    best_val = math.inf

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for b, start in enumerate(range(0, n, config.batch_size)):
            idxs = order[start : start + config.batch_size]
            loss, grad = objective.loss_and_grad(field.with_params(params), idxs)
            if not math.isfinite(loss):
                raise TrainingDiverged(epoch, b, f"batch loss {loss}")
            params, adam = nnet.adam_step(adam, params, grad)

        current = field.with_params(params)
        epoch_loss = objective.loss(current)
        if not math.isfinite(epoch_loss):
            raise TrainingDiverged(epoch, -1, f"epoch loss {epoch_loss}")
        history.append(epoch_loss)
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_params = params.copy()
        if val_objective is not None:
            best_val = min(best_val, val_objective.loss(current))

        plateau = nnet.plateau_step(plateau, epoch_loss)
        if plateau.lr != adam.lr:
            adam = replace(adam, lr=plateau.lr)
        lr_trace.append(plateau.lr)

    return TrainResult(
        field=field.with_params(best_params),
        loss_history=history,
        lr_trace=lr_trace,
        best_loss=best_loss,
        best_val_loss=None if val_objective is None else best_val,
        wall_time=time.perf_counter() - t_start,
        seed=config.seed,
    )


def train_with_restarts(
    make_field,
    trajectories: list[Trajectory],
    config: TrainConfig,
) -> tuple[TrainResult, list[float]]:
    """Train `restarts` times from different seeds, keep the best final loss."""
    best: TrainResult | None = None
    finals = []
    for r in range(max(1, config.restarts)):
        seed = config.seed + 1000 * r
        result = train(make_field(seed), trajectories, replace(config, seed=seed))
        finals.append(result.best_loss)
        if best is None or result.best_loss < best.best_loss:
            best = result
    return best, finals


# --- cross validation --------------------------------------------------------

@dataclass
class FoldReport:
    candidate: str
    fold_losses: list[float]
    failures: list[str] = dc_field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.fold_losses))


@dataclass
class CvReport:
    folds: list[FoldReport]
    selected: str
    final: TrainResult | None = None

    def to_dict(self) -> dict:
        return {
            "candidates": [
                {
                    "name": fr.candidate,
                    "fold_losses": fr.fold_losses,
                    "mean": fr.mean,
                    "failures": fr.failures,
                }
                for fr in self.folds
            ],
            "selected": self.selected,
            "final_best_loss": None if self.final is None else self.final.best_loss,
        }


def cross_validate(
    trajectories: list[Trajectory],
    candidates: list[tuple[str, callable]],
    config: TrainConfig,
    cv_epochs: int | None = None,
    final_config: TrainConfig | None = None,
) -> CvReport:
    """k-fold model selection followed by a full-data retrain of the winner.

    ``candidates`` are (name, seed -> StructuredField) pairs. Every fold's
    best validation loss is recorded; a failing fold is kept in the report
    as an inf entry rather than silently dropped.
    """
    if len(candidates) < 1:
        raise ValueError("need at least one candidate")
    folds = kfold_split(len(trajectories), config.folds, config.seed)
    fold_cfg = replace(config, epochs=cv_epochs or config.epochs)

    reports = []
    for name, builder in candidates:
        losses = []
        failures = []
        for i, (train_idx, val_idx) in enumerate(folds):
            fld = builder(config.seed + i)
            try:
                result = train(
                    fld,
                    [trajectories[j] for j in train_idx],
                    replace(fold_cfg, seed=config.seed + i),
                    val_trajectories=[trajectories[j] for j in val_idx],
                )
                losses.append(result.best_val_loss)
            except (TrainingDiverged, nnet.NonFiniteError) as err:
                losses.append(math.inf)
                failures.append(f"fold {i}: {err}")
        reports.append(FoldReport(name, losses, failures))

    selected = min(reports, key=lambda r: r.mean).candidate
    builder = dict(candidates)[selected]
    final, _ = train_with_restarts(builder, trajectories, final_config or config)
    return CvReport(reports, selected, final)
