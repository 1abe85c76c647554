"""Gradient-based feedback control through the implicit equilibrium map.

The control signal follows the negative gradient of
``0.5 * || target^{k}(x, u) - x_ref ||^2`` (k-fold iteration of the
equilibrium map at fixed u), optionally gated elementwise by smooth
Heaviside steps so updates stall at per-channel control bounds. Each step
builds only what the update reads: one cached target pass per level, a
reverse that passes the state gradient through the k - 1 inner levels and
takes only the control gradient at the input level, and a gate only for
a policy with bounds (an unbounded one would multiply by exact 1s).
State and control are co-integrated: Euler-Maruyama on the plant with
state-proportional noise, noise-free explicit Euler on the control. All
trials of a run step together as rows of one batch, each with its own
seeded noise stream. A `ControlRecipe` is the one description of a run,
and `control_schedule` the one place that builds its target starts and
Euler grid. `feedback_simulate`, the package's only Euler-Maruyama
loop, runs it and returns one `ControlTrace` that keeps the trial axis;
`recorded_nodes` is the one rule for which nodes it keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nnet
from .analysis import central_diff
from .field import StructuredField, target_cached, target_vjp
from .integrate import TimeGrid
from .nnet import NonFiniteError


def smooth_heaviside(x, rate: float):
    """Logistic step 1 / (1 + exp(-rate * x)); rate > 0, a scalar or an
    array that broadcasts against x."""
    if np.any(np.asarray(rate) <= 0):
        raise ValueError("rate must be positive")
    return nnet._sigmoid(np.asarray(x, dtype=float) * rate)


@dataclass(frozen=True)
class ControlRecipe:
    """A feedback-control run: iteration depth, update strength, plant
    noise, span per target, Euler-Maruyama step, every trial's start,
    control bounds and the nRMSE normalization.

    ``bounds`` has one ``(lo, hi, rate)`` per control channel, with -inf or
    inf for an open side; empty bounds leave every channel ungated. The
    recipe is checked whole when built: a finite positive step and span,
    a finite sigma >= 0, non-empty x0 and u0, and bounds that fit u0.
    """

    k: int
    eta: float
    sigma: float
    t_per_target: float
    step: float                       # Euler-Maruyama step
    x0: tuple                         # every trial's start state
    u0: tuple
    bounds: tuple = ()
    magnitude_definition: str = "range"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("iteration depth k must be >= 1")
        if not self.eta > 0:
            raise ValueError("update strength eta must be positive")
        if not all(0 < span < math.inf for span in (self.step, self.t_per_target)):
            raise ValueError("step and t_per_target must be finite and positive")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("noise level sigma must be finite and >= 0")
        if len(self.x0) == 0 or len(self.u0) == 0:
            raise ValueError("x0 and u0 must be non-empty")
        if len(self.bounds) not in (0, len(self.u0)):
            raise ValueError(f"need no bounds or one per control channel ({len(self.u0)}), "
                             f"got {len(self.bounds)}")
        if not all(lo < hi and 0 < rate < math.inf for lo, hi, rate in self.bounds):
            raise ValueError("each bound needs lo < hi and a finite rate > 0")


def control_gate(u, bounds) -> np.ndarray:
    """Gate H(u - lo) - H(u - hi) of each channel's ``(lo, hi, rate)`` bound,
    for one control (q,) or a batch of them (..., q): ~1 inside (lo, hi),
    0.5 at a finite bound, decaying to 0 outside.

    An open upper side contributes exactly 0, an open lower side exactly 1,
    and empty bounds give gate 1 on every channel.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if len(bounds) == 0:
        return np.ones_like(u)
    if len(bounds) != u.shape[-1]:
        raise ValueError("need one bound per control channel")
    lo, hi, rate = np.asarray(bounds, dtype=float).T
    # the capped logistic gives ~1e-308, not 0, at -inf
    upper = np.where(hi < math.inf, smooth_heaviside(u - hi, rate), 0.0)
    return smooth_heaviside(u - lo, rate) - upper


def iterate_target(target_map, x, u, k: int) -> np.ndarray:
    """k successive applications of the callable equilibrium map
    ``target_map(x, u)`` at fixed control."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    for _ in range(k):
        x = np.atleast_1d(np.asarray(target_map(x, u), dtype=float))
    return x


def control_objective_grad(target_map, x, u, x_ref, k: int = 1) -> np.ndarray:
    """Gradient in u of 0.5*||target^{k}(x,u) - x_ref||^2, exact through all
    k compositions for a structured field, `analysis.central_diff` otherwise.

    x, u and x_ref are one point or batches of rows; each row gets the
    gradient of its own objective."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x_ref = np.atleast_1d(np.asarray(x_ref, dtype=float))
    if isinstance(target_map, StructuredField):
        # one cached target pass per level; the reverse replays each cache
        caches = []
        cur = x
        for _ in range(k):
            cur, cache = target_cached(target_map, cur, u)
            caches.append(cache)
        # inner levels pass their state gradient outward; the input level's
        # is read by nothing, so its reverse builds only the control gradient
        cot = cur - x_ref
        ugrads = []
        for cache in reversed(caches[1:]):
            cot, ug = target_vjp(target_map, cache, cot)
            ugrads.append(ug)
        ugrads.append(target_vjp(target_map, caches[0], cot, state_grad=False))
        return sum(ugrads[1:], ugrads[0])

    def objective(uu):
        # per-row r @ r; a stacked matmul gives each row the bits of a 1-D one
        r = iterate_target(target_map, x, uu, k) - x_ref
        return 0.5 * (r[..., None, :] @ r[..., :, None])[..., 0, 0]

    return central_diff(objective, u)


# --- joint state/control simulation -------------------------------------------

@dataclass
class ControlTrace:
    """Co-integrated plant states and control signals of a batch of trials
    through one schedule of targets, at the recorded nodes."""

    times: np.ndarray         # (n,)
    target_index: np.ndarray  # (n,) active target per node
    states: np.ndarray        # (n, trials, d)
    controls: np.ndarray      # (n, trials, q)
    refs: np.ndarray          # (targets, trials, d) each trial's x_ref per target


def control_steps(recipe: ControlRecipe, n_targets: int) -> int:
    """Euler steps of a control run through n_targets targets: its span
    rounded to whole steps of recipe.step."""
    return int(round(recipe.t_per_target * n_targets / recipe.step))


def control_schedule(recipe: ControlRecipe, n_targets: int):
    """Start time of each target and the Euler grid (`control_steps`) of a
    control run through n_targets targets; a run that rounds to 0 steps is
    the grid's ValueError."""
    starts = [i * recipe.t_per_target for i in range(n_targets)]
    return starts, TimeGrid(0.0, recipe.t_per_target * n_targets,
                            control_steps(recipe, n_targets))


def active_targets(starts, times) -> np.ndarray:
    """Index of the target active at each time in a schedule whose targets
    start at the ordered ``starts``: the last one started by then, and the
    first one before any has started."""
    return np.maximum(np.searchsorted(starts, times, side="right") - 1, 0)


def recorded_nodes(starts, grid: TimeGrid, record_every: int):
    """Times of the nodes 0, r, 2r, ... of ``grid`` that a run recording
    every r-th node keeps, and the target active at each (`active_targets`)."""
    times = grid.times()[::record_every]
    return times, active_targets(starts, times)


def feedback_simulate(plant_rhs, target_map, recipe: ControlRecipe, targets, seeds, starts,
                      grid: TimeGrid, record_every: int = 1) -> ControlTrace:
    """Steer a batch of plants from the recipe's x0 and u0, one trial per
    seed, each through its own row of ``targets`` (trials, n_targets, d) on
    `control_schedule`'s ordered ``starts`` and ``grid`` (`active_targets`);
    returns the trace of all trials at `recorded_nodes`.

    The states follow Euler-Maruyama with diffusion ``sigma * sqrt(|x|)``
    per coordinate, trial i drawing its increments from
    ``default_rng(seeds[i])``; the controls follow
    du/dt = -eta * grad * gate, noise-free, on the same grid.
    """
    if len(starts) == 0:
        raise ValueError("need at least one target")
    if any(b < a for a, b in zip(starts, starts[1:])):
        raise ValueError("targets must be ordered in time")
    n_trials, d = len(seeds), len(recipe.x0)
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (n_trials, len(starts), d):
        raise ValueError(f"targets must be (trials, targets, d) = "
                         f"{(n_trials, len(starts), d)}, got {targets.shape}")

    x = np.tile(np.asarray(recipe.x0, dtype=float), (n_trials, 1))
    u = np.tile(np.asarray(recipe.u0, dtype=float), (n_trials, 1))
    refs = np.ascontiguousarray(targets.swapaxes(0, 1))
    noise = np.stack([np.random.default_rng(seed).standard_normal((grid.n_steps, d))
                      for seed in seeds], axis=1)
    h = grid.h
    sqrt_h = math.sqrt(h)
    times = grid.times()
    active_at = active_targets(starts, times)

    rec_times, rec_index = recorded_nodes(starts, grid, record_every)
    out_x = np.empty((len(rec_times), n_trials, d))
    out_u = np.empty((len(rec_times), n_trials, u.shape[1]))
    for n in range(grid.n_steps + 1):
        if n % record_every == 0:
            out_x[n // record_every] = x
            out_u[n // record_every] = u
        if n == grid.n_steps:
            break
        grad = control_objective_grad(target_map, x, u, refs[active_at[n]], recipe.k)
        du = h * recipe.eta * grad
        if len(recipe.bounds):  # empty bounds gate every channel by exactly 1
            du = du * control_gate(u, recipe.bounds)
        drift_x = np.asarray(plant_rhs(x, u), dtype=float)
        diff = recipe.sigma * np.sqrt(np.abs(x)) if recipe.sigma else 0.0
        x = x + h * drift_x + sqrt_h * diff * noise[n]
        u = u - du
        if not (np.isfinite(x).all() and np.isfinite(u).all()):
            raise NonFiniteError(f"feedback simulation diverged at t={times[n]:.6g}")
    return ControlTrace(rec_times, rec_index, out_x, out_u, refs)
