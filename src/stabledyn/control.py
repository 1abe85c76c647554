"""Gradient-based feedback control through the implicit equilibrium map.

The control signal follows the negative gradient of
``0.5 * || target^{k}(x, u) - x_ref ||^2`` (k-fold iteration of the
equilibrium map at fixed u), optionally gated elementwise by smooth
Heaviside constraints so updates stall at user-set control boundaries.
State and control are co-integrated: Euler-Maruyama on the plant with
state-proportional noise, noise-free explicit Euler on the control.

Also included: the closed-form/iterative solutions for the linear
simplification target(x,u) = G u (minimum-norm, ridge, gradient descent,
and continuous gradient flow), used to validate convergence-rate theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nnet
from .field import StructuredField, eval_target, target_vjp
from .integrate import TimeGrid, noise_path
from .nnet import NonFiniteError


def smooth_heaviside(x, rate: float):
    """Logistic step 1 / (1 + exp(-rate * x)); rate > 0."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return nnet._sigmoid(np.asarray(x, dtype=float) * rate)


@dataclass(frozen=True)
class HeavisideTerm:
    sign: int      # +1 or -1
    boundary: float
    rate: float

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if self.rate <= 0:
            raise ValueError("rate must be positive")


def interval_gate(lo: float, hi: float, rate: float) -> tuple[HeavisideTerm, HeavisideTerm]:
    """Gate that is ~1 inside (lo, hi) and decays to 0 outside."""
    return (HeavisideTerm(1, lo, rate), HeavisideTerm(-1, hi, rate))


def lower_gate(lo: float, rate: float) -> tuple[HeavisideTerm]:
    """One-sided gate enforcing u > lo."""
    return (HeavisideTerm(1, lo, rate),)


@dataclass(frozen=True)
class ControlPolicyCfg:
    """Iteration depth, update strength, and per-channel constraint terms.

    ``constraints`` has one (possibly empty) tuple of HeavisideTerm per
    control channel; an empty tuple leaves that channel ungated.
    """

    k: int = 1
    eta: float = 1.0
    constraints: tuple = ()

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("iteration depth k must be >= 1")
        if self.eta <= 0:
            raise ValueError("update strength eta must be positive")


def control_gate(u, constraints) -> np.ndarray:
    """Per-channel gate phi(u_i) = sum_j sign_j * H(u_i - boundary_j, rate_j).

    Channels with no terms get gate 1 (unconstrained).
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not constraints:
        return np.ones_like(u)
    if len(constraints) != len(u):
        raise ValueError("need one constraint list per control channel")
    out = np.empty_like(u)
    for i, terms in enumerate(constraints):
        if not terms:
            out[i] = 1.0
            continue
        val = 0.0
        for term in terms:
            val += term.sign * smooth_heaviside(u[i] - term.boundary, term.rate)
        out[i] = val
    return out


def iterate_target(target_map, x, u, k: int) -> np.ndarray:
    """k successive applications of the equilibrium map at fixed control."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    for _ in range(k):
        x = _apply_target(target_map, x, u)
    return x


def _apply_target(target_map, x, u) -> np.ndarray:
    if isinstance(target_map, StructuredField):
        return eval_target(target_map, x, u)
    return np.atleast_1d(np.asarray(target_map(x, u), dtype=float))


def control_objective_grad(target_map, x, u, x_ref, k: int = 1) -> np.ndarray:
    """Gradient in u of 0.5*||target^{k}(x,u) - x_ref||^2, exact through all
    k compositions for a structured field, central differences otherwise."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x_ref = np.atleast_1d(np.asarray(x_ref, dtype=float))
    if isinstance(target_map, StructuredField):
        levels = [x]
        cur = x
        for _ in range(k):
            cur = eval_target(target_map, cur, u)
            levels.append(cur)
        cot = levels[-1] - x_ref
        ugrad = np.zeros_like(u)
        for j in range(k, 0, -1):
            _, xg, ug = target_vjp(target_map, levels[j - 1], u, cot)
            ugrad += ug
            cot = xg
        return ugrad

    def objective(uu):
        r = iterate_target(target_map, x, uu, k) - x_ref
        return 0.5 * float(r @ r)

    h = 1e-6
    g = np.zeros_like(u)
    for i in range(len(u)):
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        g[i] = (objective(up) - objective(um)) / (2.0 * h)
    return g


# --- joint state/control simulation -------------------------------------------

@dataclass
class ControlTrace:
    """Co-integrated trajectory of plant state and control signal."""

    times: np.ndarray
    states: np.ndarray       # (n, d)
    controls: np.ndarray     # (n, q)
    target_index: np.ndarray  # (n,) active target per node
    targets: list            # [(t_start, x_ref), ...]


def feedback_simulate(
    plant_rhs,
    target_map,
    policy: ControlPolicyCfg,
    targets: list,
    x0,
    u0,
    grid: TimeGrid,
    sigma: float = 0.0,
    seed=0,
    record_every: int = 1,
) -> ControlTrace:
    """Steer the plant through a schedule of targets.

    ``targets`` is a time-ordered list of (t_start, x_ref); the last target
    whose start time is <= t is active. The state follows Euler-Maruyama
    with diffusion ``sigma * sqrt(|x|)`` per coordinate; the control follows
    du/dt = -eta * grad * gate, noise-free, on the same grid.
    """
    if not targets:
        raise ValueError("need at least one target")
    starts = [t for t, _ in targets]
    if any(b < a for a, b in zip(starts, starts[1:])):
        raise ValueError("targets must be ordered in time")

    refs = [np.atleast_1d(np.asarray(xr, dtype=float)) for _, xr in targets]
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    u = np.atleast_1d(np.asarray(u0, dtype=float)).copy()

    d = x.shape[0]
    noise = noise_path(grid, d, seed)
    h = grid.h
    sqrt_h = math.sqrt(h)
    times = grid.times()

    n_rec = grid.n_steps // record_every + 1
    out_t = np.empty(n_rec)
    out_x = np.empty((n_rec, d))
    out_u = np.empty((n_rec, u.shape[0]))
    out_idx = np.empty(n_rec, dtype=int)

    active = 0
    rec = 0

    def record(i, t):
        nonlocal rec
        out_t[rec] = t
        out_x[rec] = x
        out_u[rec] = u
        out_idx[rec] = active
        rec += 1

    for n in range(grid.n_steps + 1):
        t = times[n]
        while active + 1 < len(targets) and starts[active + 1] <= t:
            active += 1
        if n % record_every == 0:
            record(n, t)
        if n == grid.n_steps:
            break
        grad = control_objective_grad(target_map, x, u, refs[active], policy.k)
        gate = control_gate(u, policy.constraints)
        drift_x = np.asarray(plant_rhs(x, u), dtype=float)
        diff = sigma * np.sqrt(np.abs(x)) if sigma else 0.0
        x = x + h * drift_x + sqrt_h * diff * noise.increments[n]
        u = u - h * policy.eta * grad * gate
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
            raise NonFiniteError(f"feedback simulation diverged at t={t:.6g}")
    return ControlTrace(out_t[:rec], out_x[:rec], out_u[:rec], out_idx[:rec], list(targets))


# --- linear control theory -----------------------------------------------------

@dataclass(frozen=True)
class LinearControlProblem:
    """Tractable simplification: target(x,u) = G u, objective
    0.5*||G u - x_ref||^2 (+ 0.5*lam*||u||^2 when ridge-regularized)."""

    G: np.ndarray
    x_ref: np.ndarray
    lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "G", np.atleast_2d(np.asarray(self.G, dtype=float)))
        object.__setattr__(self, "x_ref", np.atleast_1d(np.asarray(self.x_ref, dtype=float)))
        if not np.all(np.isfinite(self.G)) or not np.all(np.isfinite(self.x_ref)):
            raise ValueError("problem data must be finite")


def linear_minnorm(prob: LinearControlProblem) -> np.ndarray:
    """Minimum-norm least-squares solution via the pseudoinverse."""
    return np.linalg.pinv(prob.G) @ prob.x_ref


def ridge_solve(prob: LinearControlProblem) -> np.ndarray:
    """(G^T G + lam I)^-1 G^T x_ref for lam > 0.

    Solved through the SVD with Tikhonov filter factors s / (s^2 + lam)
    rather than the normal equations, which square the condition number of
    G. Singular values below the pseudoinverse's own cutoff (1e-15 of the
    largest) are dropped, so lam -> 0 approaches linear_minnorm.
    """
    if prob.lam <= 0:
        raise ValueError("ridge regularization needs lam > 0")
    U, s, Vt = np.linalg.svd(prob.G, full_matrices=False)
    large = s > 1e-15 * np.max(s, initial=0.0)
    filt = np.zeros_like(s)
    filt[large] = s[large] / (s[large] ** 2 + prob.lam)
    return Vt.T @ (filt * (U.T @ prob.x_ref))


@dataclass
class GdResult:
    iterates: np.ndarray      # (iters+1, q)
    errors: np.ndarray        # ||u_k - u_minnorm|| per step
    diverged: bool = False


def gd_linear(prob: LinearControlProblem, u0, eta: float, iters: int,
              divergence_threshold: float = 1e6) -> GdResult:
    """u_{k+1} = u_k - eta G^T (G u_k - x_ref), tracking distance to the
    minimum-norm solution; flags runaway iterates."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    G = prob.G
    u_star = linear_minnorm(prob)
    u = np.atleast_1d(np.asarray(u0, dtype=float)).copy()
    iterates = [u.copy()]
    errors = [float(np.linalg.norm(u - u_star))]
    diverged = False
    for _ in range(iters):
        u = u - eta * (G.T @ (G @ u - prob.x_ref))
        iterates.append(u.copy())
        errors.append(float(np.linalg.norm(u - u_star)))
        if np.linalg.norm(u) > divergence_threshold or not np.all(np.isfinite(u)):
            diverged = True
            break
    return GdResult(np.asarray(iterates), np.asarray(errors), diverged)


def gradient_flow_linear(prob: LinearControlProblem, u0, eta: float, grid: TimeGrid):
    """Integrate du/dt = -eta G^T (G u - x_ref) with RK4; returns (times, u(t))."""
    from .integrate import rk4_solve_batch

    G = prob.G

    def rhs(u_batch, _):
        return -eta * (u_batch @ (G.T @ G).T - prob.x_ref @ G)

    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    states = rk4_solve_batch(rhs, u0[None, :], np.zeros((1, 0)), grid)[0]
    return grid.times(), states


def optimal_gd_step(G: np.ndarray) -> tuple[float, float]:
    """(eta*, rho): step 2/(L+mu) and its contraction factor (k^2-1)/(k^2+1)."""
    sig = np.linalg.svd(np.atleast_2d(G), compute_uv=False)
    smax, smin = sig[0], sig[-1]
    if smin == 0:
        raise ValueError("G must have full column rank")
    L, mu = smax**2, smin**2
    kappa2 = L / mu
    return 2.0 / (L + mu), (kappa2 - 1.0) / (kappa2 + 1.0)
