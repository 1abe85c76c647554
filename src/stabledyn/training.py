"""Training objectives, the mini-batch loop, and k-fold cross validation.

Two objectives are supported. Trajectory matching integrates the model
from each trajectory's initial state, one RK4 step per sample interval,
and penalizes the mean squared gap to the observed samples. Trajectories
that share a time grid are stacked into one block; its gradient takes one
value forward per block, then a reverse that re-linearizes every RK4 stage
about the solved states (`integrate.rk4_solve_unrolled_grad`), one step
block of at most `nnet._BLOCK_ROWS` rows at a time, so no product is wider
than a block and a batch has the same bits at 1 and 2 OpenBLAS threads.
The objective owns one `integrate.StageTape` for those calls, so every
step block writes its stage caches into the same arrays; the tape holds
one block, grows to the largest seen and smaller ones use its first rows.
Gradient matching skips the solver: it penalizes the gap between the model
vector field and finite-difference derivative estimates at the observed
states. It stacks the states, controls and estimates once, in arrays it
owns; a batch gathers its trajectories' row ranges. A batch and the
full-data loss both stream through `nnet.row_blocks`, keeping only the
per-row losses: a batch runs a cached forward and its reverse per block,
so it holds one block's caches at a time, its loss has the bits of the
value-only loss on the same rows, and no product is wider than a block
(a 2,550-row one rounded differently at 1 and 2 OpenBLAS threads).
Batches are whole trajectories in both cases.

`make_objective` builds an objective once, over its own copy of the data:
it keeps nothing of the trajectories it was built from, so a caller that
drops them (`cli.cmd_train` drops the parsed dataset) holds the data once.
`train` and `train_with_restarts` take the built objective, and every
restart shares it and its stage tape.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import nnet
from .field import StructuredField, eval_velocity, velocity_cached, velocity_vjp_cached
from .integrate import (DatasetError, StageTape, TimeGrid, Trajectory, finite_diff,
                        rk4_solve_batch, rk4_solve_unrolled_grad)

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
        # one stacked copy of the states, controls and derivative estimates,
        # owned here: trajectory i is rows _bounds[i]:_bounds[i + 1]
        self._bounds = np.cumsum([0] + [len(t.times) for t in trajectories])
        d, q = (trajectories[0].dim, len(trajectories[0].control)) if trajectories else (0, 0)
        n = int(self._bounds[-1])
        self._x, self._u, self._d = np.empty((n, d)), np.empty((n, q)), np.empty((n, d))
        for traj, lo, hi in zip(trajectories, self._bounds[:-1], self._bounds[1:]):
            self._d[lo:hi] = finite_diff(traj)
            self._x[lo:hi] = traj.states
            self._u[lo:hi] = traj.control
        self.n_traj = len(trajectories)
        _check_usable(trajectories)

    def _gather(self, idxs):
        """(x, u, d) of the chosen trajectories' rows, in the order chosen;
        the stacked arrays themselves for all of them (``idxs`` None)."""
        if idxs is None:
            return self._x, self._u, self._d
        lo, n = self._bounds[:-1][idxs], np.diff(self._bounds)[idxs]
        rows = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
        # take, not fancy indexing: a fifth of the time on 2,550 rows
        return tuple(a.take(rows, axis=0) for a in (self._x, self._u, self._d))

    def loss(self, field: StructuredField, idxs=None) -> float:
        # one velocity call per row block of `nnet.mlp_values`, so the full
        # data builds no temporaries wider than a block, and single-output
        # nets round as one call on all rows would
        x, u, d = self._gather(idxs)
        per_row = np.empty(len(x))
        for rows in nnet.row_blocks(len(x)):
            res = d[rows] - eval_velocity(field, x[rows], u[rows])
            per_row[rows] = np.sum(res * res, axis=1)
        return float(np.mean(per_row))

    def loss_and_grad(self, field: StructuredField, idxs=None):
        # `loss`'s row blocks, each a cached forward and its reverse, so one
        # block's caches are alive at a time and no product has more rows
        # than a block (a wider one can round by BLAS thread count); the loss
        # has the bits of `loss`, and the gradients add up in block order
        x, u, d = self._gather(idxs)
        per_row, grad = np.empty(len(x)), None
        for rows in nnet.row_blocks(len(x)):
            v, cache = velocity_cached(field, x[rows], u[rows])
            res = d[rows] - v
            per_row[rows] = np.sum(res * res, axis=1)
            part = velocity_vjp_cached(field, cache, (-2.0 / len(x)) * res)
            if grad is None:
                grad = part
            else:
                grad += part
        return float(np.mean(per_row)), grad


class TrajMatchingObjective:
    """Mean squared error between observed states and model trajectories
    simulated from each observed initial state, one RK4 step per sample
    interval of its evenly spaced time grid; a trajectory sampled off that
    grid is a DatasetError."""

    def __init__(self, trajectories: list[Trajectory]):
        # one stacked (grid, x0, u, obs) block per time grid, so each block
        # solves in one call; _where[i] is trajectory i's (block, row)
        keys: dict[tuple, int] = {}
        block = np.array([keys.setdefault((len(t.times), float(t.times[0]), float(t.times[-1])),
                                          len(keys)) for t in trajectories])
        row = np.zeros_like(block)
        self._blocks = []
        for key, b in keys.items():
            idx = np.flatnonzero(block == b)
            row[idx] = np.arange(len(idx))
            members = [trajectories[i] for i in idx]
            n, t0, t1 = key
            grid = TimeGrid(t0, t1, n - 1) if n > 1 else None
            _check_even(grid, [t.times for t in members], [t.traj_id for t in members])
            obs = np.array([t.states for t in members])  # (B, n, d)
            self._blocks.append((grid, obs[:, 0], np.array([t.control for t in members]), obs))
        self._where = np.stack([block, row], axis=1)
        self.n_traj = len(trajectories)
        # every gradient writes its stage caches into this one tape
        self._tape = StageTape()
        _check_usable(trajectories)

    def _solve(self, field: StructuredField, idxs):
        """Per block of the chosen trajectories (rows in the order chosen):
        (grid, u, solved states, residuals), and the count of observed
        states the mean divides by."""
        block, row = self._where.T if idxs is None else self._where[idxs].T
        parts, count = [], 0
        for b in np.unique(block):
            grid, x0, u, obs = self._blocks[b]
            rows = row[block == b]
            count += len(rows) * obs.shape[1]
            if grid is None:
                continue  # only the initial state: matched by construction
            states = rk4_solve_batch(lambda x, uu: eval_velocity(field, x, uu), x0[rows],
                                     u[rows], grid)
            parts.append((grid, u[rows], states, states - obs[rows]))
        return parts, count

    def loss(self, field: StructuredField, idxs=None) -> float:
        parts, count = self._solve(field, idxs)
        return sum(float(np.sum(res * res)) for *_, res in parts) / count

    def loss_and_grad(self, field: StructuredField, idxs=None):
        # one value forward per block gives the states and the residuals,
        # then the reverse re-linearizes every stage about them
        parts, count = self._solve(field, idxs)
        grad = np.zeros_like(field.params)
        for grid, u, states, res in parts:
            grad += rk4_solve_unrolled_grad(field, states, u, grid, (2.0 / count) * res,
                                            self._tape)
        return sum(float(np.sum(res * res)) for *_, res in parts) / count, grad


def _check_usable(trajectories) -> None:
    """Refuse no trajectories, or one with a non-finite state or control,
    which would otherwise surface as a non-finite loss mid-training. The
    objectives call it after stacking their data: called first, its
    temporaries raised the peak RSS of a 10-epoch two-tanks train by 1 MB."""
    if not trajectories:
        raise DatasetError("no trajectories to match")
    for traj in trajectories:
        if not (np.isfinite(traj.states).all() and np.isfinite(traj.control).all()):
            raise DatasetError(f"trajectory {traj.traj_id} has a non-finite state or control")


def _check_even(grid, times, ids) -> None:
    """Refuse a trajectory whose times are off its block's evenly spaced
    grid (None for one sample) by more than 1e-9 of its spacing."""
    if grid is not None:
        off = np.abs(np.asarray(times) - grid.times()).max(axis=1) > 1e-9 * grid.h
        if off.any():
            raise DatasetError(f"trajectory {ids[int(np.argmax(off))]} is not evenly spaced "
                               "in time; trajectory matching integrates on an even grid")


def make_objective(config: TrainConfig, trajectories: list[Trajectory]):
    """The objective ``config`` names, over its own copy of ``trajectories``:
    it keeps no reference to them or to the arrays they view, so a caller
    that drops them holds the data once."""
    if config.objective == GRAD_MATCHING:
        return GradMatchingObjective(trajectories)
    return TrajMatchingObjective(trajectories)


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
            },
            "loss_history": self.loss_history,
            "lr_trace": self.lr_trace,
            "best_loss": self.best_loss,
            "best_val_loss": self.best_val_loss,
            "wall_time_s": self.wall_time,
        }


def train(field: StructuredField, objective, config: TrainConfig,
          val_objective=None) -> TrainResult:
    """Mini-batch Adam over shuffled whole trajectories of ``objective``,
    built by `make_objective` for ``config``.

    Tracks the best parameters by full-data loss; when a validation
    objective is given, also records the best validation loss seen at any
    epoch. The objectives keep nothing from one run to the next, so one
    objective may serve several runs.
    """
    t_start = time.perf_counter()
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


def train_with_restarts(make_field, objective, config: TrainConfig) -> TrainResult:
    """Train `restarts` times from different seeds, keep the best final loss.
    Every restart runs on the one ``objective``, its data and its stage
    tape."""
    best: TrainResult | None = None
    for r in range(max(1, config.restarts)):
        seed = config.seed + 1000 * r
        result = train(make_field(seed), objective, replace(config, seed=seed))
        if best is None or result.best_loss < best.best_loss:
            best = result
    return best


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
                    make_objective(fold_cfg, [trajectories[j] for j in train_idx]),
                    replace(fold_cfg, seed=config.seed + i),
                    val_objective=make_objective(fold_cfg, [trajectories[j] for j in val_idx]),
                )
                losses.append(result.best_val_loss)
            except (TrainingDiverged, nnet.NonFiniteError) as err:
                losses.append(math.inf)
                failures.append(f"fold {i}: {err}")
        reports.append(FoldReport(name, losses, failures))

    selected = min(reports, key=lambda r: r.mean).candidate
    builder = dict(candidates)[selected]
    final = train_with_restarts(builder, make_objective(config, trajectories), config)
    return CvReport(reports, selected, final)
