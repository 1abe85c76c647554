"""Equilibrium discovery, stability classification, bifurcation sweeps,
tipping-point detection, and evaluation metrics.

Root finding is deliberately simple and testable: a uniform scan with
bisection on sign changes in one dimension, damped Newton with a
finite-difference Jacobian from a grid of starts in higher dimensions.
Sign-change cells that bisect onto a discontinuity (the residual stays
large) are discarded, and tangency roots without a sign change can be
missed; scan densities are chosen below benchmark feature scales.

In one dimension a single batched engine serves find_equilibria_1d (one
control value) and bifurcation_sweep (many): residuals take arrays and are
evaluated elementwise, the (control x state) scan grid is evaluated in
blocks of whole control rows, every bracket of every control is bisected
together, and every root is classified from the residual's own slope
(velocity = decay * residual with decay < 0). No call gets more than
_BLOCK_ROWS points, which bounds the peak resident memory of a sweep; the
per-bracket arithmetic is that of a scalar scan and bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"


@dataclass(frozen=True)
class EquilibriumPoint:
    x_star: np.ndarray
    u: np.ndarray
    stability: str
    residual_norm: float

    def __post_init__(self):
        object.__setattr__(self, "x_star", np.atleast_1d(np.asarray(self.x_star, dtype=float)))
        object.__setattr__(self, "u", np.atleast_1d(np.asarray(self.u, dtype=float)))


@dataclass
class BifurcationDiagram:
    control_values: np.ndarray
    points: list[EquilibriumPoint]
    tipping_points: list[float]
    counts: np.ndarray  # equilibria per control value


@dataclass
class MetricsReport:
    nrmse_mean: np.ndarray          # per dimension
    nrmse_std: np.ndarray
    within_5pct: np.ndarray         # fraction per dimension
    within_2pct: np.ndarray
    magnitude: np.ndarray
    magnitude_definition: str
    per_target: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "nrmse_mean": self.nrmse_mean.tolist(),
            "nrmse_std": self.nrmse_std.tolist(),
            "within_5pct": self.within_5pct.tolist(),
            "within_2pct": self.within_2pct.tolist(),
            "magnitude": self.magnitude.tolist(),
            "magnitude_definition": self.magnitude_definition,
            "per_target": self.per_target,
        }


# --- scalar root finding -------------------------------------------------------

# Most (control, state) points passed to one residual call. The scan runs
# in blocks of whole control rows under this cap, and bisection and
# stability evaluate their brackets and roots in chunks of it, so no
# call and no array grows with (controls x scan points). Peak RSS of a
# learned 401 x 401 `bifurcate` run (2-core x86-64, numpy 2.4, OpenBLAS):
# 36.3 MB at 1024 points per call, 40.1 MB at 4096, 200 MB with the whole
# grid in one call, which was also slower; 1024 is as fast as 4096.
_BLOCK_ROWS = 1024

# the sweep classification needs no _EQUILIBRIUM_TOL: its roots have |r| <= 1e-10
_EQUILIBRIUM_TOL = 1e-6
_EIG_TOL = 1e-8
_FD_STEP = 1e-6


def _call_in_blocks(fn_of, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``fn_of(c)(x)`` on equal-length flat arrays, at most _BLOCK_ROWS rows
    per call."""
    out = np.empty(len(x))
    for i in range(0, len(x), _BLOCK_ROWS):
        s = slice(i, i + _BLOCK_ROWS)
        out[s] = np.ravel(fn_of(c[s])(x[s]))
    return out


def _bisect(residual_of, c, a, b, fa):
    """Bisect every bracket [a, b] together; returns the final midpoints and
    their residuals. Each bracket follows the scalar rule: stop when the
    midpoint residual is exactly 0 or the bracket is below 1e-15 relative
    width, at most 200 steps."""
    a, b, fa = a.copy(), b.copy(), fa.copy()
    live = np.arange(len(a))
    for _ in range(200):
        if live.size == 0:
            break
        m = 0.5 * (a[live] + b[live])
        fm = _call_in_blocks(residual_of, c[live], m)
        done = (fm == 0.0) | (b[live] - a[live] < 1e-15 * np.maximum(1.0, np.abs(m)))
        to_a = ~done & (np.sign(fm) == np.sign(fa[live]))
        to_b = ~done & ~to_a
        a[live[to_a]] = m[to_a]
        fa[live[to_a]] = fm[to_a]
        b[live[to_b]] = m[to_b]
        live = live[~done]
    m = 0.5 * (a + b)
    return m, _call_in_blocks(residual_of, c, m)


def _equilibria(residual_of, controls: np.ndarray, interval, n_scan: int,
                tol: float = 1e-10, dedup: float = 1e-6):
    """Roots of ``residual_of(c)(x)`` on the interval for every control value.

    Returns (control index, root, residual) arrays, sorted by control index
    then root, with roots of one control closer than ``dedup`` merged.
    """
    lo, hi = float(interval[0]), float(interval[1])
    xs = np.linspace(lo, hi, n_scan + 1)
    per_block = max(1, _BLOCK_ROWS // len(xs))
    # exact zeros on the grid, then sign-change cells: (control index, x)
    # and (control index, a, b, r(a))
    zero_i, cell_i = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    zero_x, cell_a, cell_b, cell_fa = ([np.empty(0)] for _ in range(4))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, len(controls), per_block):
            idx = np.arange(start, min(start + per_block, len(controls)))
            vals = _call_in_blocks(residual_of, np.repeat(controls[idx], len(xs)),
                                   np.tile(xs, len(idx))).reshape(len(idx), len(xs))
            zi, zj = np.nonzero(vals == 0.0)
            zero_i.append(idx[zi])
            zero_x.append(xs[zj])
            fa, fb = vals[:, :-1], vals[:, 1:]
            ci, cj = np.nonzero(~((fa == 0.0) | (fb == 0.0) | (np.sign(fa) == np.sign(fb))))
            cell_i.append(idx[ci])
            cell_a.append(xs[cj])
            cell_b.append(xs[cj + 1])
            cell_fa.append(fa[ci, cj])
        cell_i = np.concatenate(cell_i)
        m, r = _bisect(residual_of, controls[cell_i], np.concatenate(cell_a),
                       np.concatenate(cell_b), np.concatenate(cell_fa))
        # a cell whose bisection limit still has |r| > tol hides a discontinuity
        kept = np.abs(r) <= tol
    zero_x = np.concatenate(zero_x)
    ctrl = np.concatenate(zero_i + [cell_i[kept]])
    roots = np.concatenate([zero_x, m[kept]])
    res = np.concatenate([np.zeros(len(zero_x)), r[kept]])
    order = np.lexsort((roots, ctrl))
    ctrl, roots, res = ctrl[order], roots[order], res[order]
    keep = np.zeros(len(roots), dtype=bool)
    last = -1
    for k in range(len(roots)):
        keep[k] = last < 0 or ctrl[k] != ctrl[last] or abs(roots[k] - roots[last]) > dedup
        if keep[k]:
            last = k
    return ctrl[keep], roots[keep], res[keep]


def find_equilibria_1d(residual_fn, interval, n_scan: int = 400,
                       tol: float = 1e-10, dedup: float = 1e-6) -> np.ndarray:
    """Roots of a continuous scalar residual on an interval, sorted.

    Uniform scan over n_scan cells, bisection on each sign change. A cell
    whose bisection limit still has |r| > tol hides a discontinuity, not a
    root, and is dropped. ``residual_fn`` is evaluated elementwise on a 1-d
    state array of at most _BLOCK_ROWS entries; it is the one-control case
    of the engine behind bifurcation_sweep.
    """
    _, roots, _ = _equilibria(lambda c: residual_fn, np.zeros(1), interval, n_scan,
                              tol, dedup)
    return roots


# --- multivariate root finding ---------------------------------------------------

def _fd_jacobian(fn, x, h: float = 1e-6) -> np.ndarray:
    d = len(x)
    jac = np.empty((d, d))
    for j in range(d):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2.0 * h)
    return jac


def find_equilibria_nd(residual_fn, box, starts_per_axis: int = 6,
                       tol: float = 1e-8, dedup: float = 1e-4,
                       max_iter: int = 80):
    """Damped Newton on r(x) = 0 from a grid of starts over a box.

    Returns (roots array, n_failed_starts). Starts that do not reach
    ||r|| <= tol are counted, not silently dropped.
    """
    box = np.asarray(box, dtype=float).reshape(-1, 2)
    axes = [np.linspace(lo, hi, starts_per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    starts = np.stack([m.ravel() for m in mesh], axis=1)

    roots: list[np.ndarray] = []
    failed = 0
    for x0 in starts:
        x = x0.copy()
        r = np.asarray(residual_fn(x), dtype=float)
        ok = False
        for _ in range(max_iter):
            nr = np.linalg.norm(r)
            if nr <= tol:
                ok = True
                break
            jac = _fd_jacobian(residual_fn, x)
            try:
                step = np.linalg.solve(jac, -r)
            except np.linalg.LinAlgError:
                break
            scale = 1.0
            improved = False
            for _ in range(30):
                x_new = x + scale * step
                r_new = np.asarray(residual_fn(x_new), dtype=float)
                if np.all(np.isfinite(r_new)) and np.linalg.norm(r_new) < nr:
                    x, r = x_new, r_new
                    improved = True
                    break
                scale *= 0.5
            if not improved:
                break
        if ok or np.linalg.norm(r) <= tol:
            if not any(np.linalg.norm(x - prev) <= dedup for prev in roots):
                roots.append(x)
        else:
            failed += 1
    roots.sort(key=lambda p: tuple(p))
    return np.asarray(roots).reshape(-1, box.shape[0]), failed


# --- stability -------------------------------------------------------------------

def _label(max_real, eig_tol: float):
    """Stability label(s) from the largest real part of the Jacobian's
    eigenvalues."""
    return np.where(max_real < -eig_tol, STABLE, np.where(max_real > eig_tol, UNSTABLE, MARGINAL))


def classify_stability(velocity_fn, x_star, equilibrium_tol: float = _EQUILIBRIUM_TOL,
                       eig_tol: float = _EIG_TOL, h: float = _FD_STEP) -> str:
    """Stability of an equilibrium from the finite-difference Jacobian of
    the velocity field (d = 1 or 2)."""
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    v = np.atleast_1d(np.asarray(velocity_fn(x_star), dtype=float))
    if np.linalg.norm(v) > equilibrium_tol:
        raise ValueError(f"not an equilibrium: |velocity| = {np.linalg.norm(v):.3e}")
    if len(x_star) > 2:
        raise ValueError("stability classification supports d <= 2")
    jac = _fd_jacobian(lambda x: np.atleast_1d(velocity_fn(x)), x_star, h)
    if len(x_star) == 1:
        return str(_label(jac[0, 0], eig_tol))
    tr = jac[0, 0] + jac[1, 1]
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        max_real = 0.5 * (tr + np.sqrt(disc))
    else:
        max_real = 0.5 * tr
    return str(_label(max_real, eig_tol))


def _classify_1d(residual_of, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stability labels of many scalar equilibria x at controls c, from one
    batched evaluation of the residual at x + h and x - h (in calls of at
    most _BLOCK_ROWS points). Contract: velocity = decay * residual with
    decay < 0, as for the learned field (x - target), the true rhs (-rhs,
    decay -1) and the analytic splits. At a root the negated residual slope
    then has the velocity slope's sign, and classify_stability's rule applies."""
    h = _FD_STEP
    r = _call_in_blocks(residual_of, np.tile(c, 2),
                        np.concatenate([x + h, x - h])).reshape(2, len(x))
    return _label((r[1] - r[0]) / (2.0 * h), _EIG_TOL)


# --- bifurcation sweeps -----------------------------------------------------------

def bifurcation_sweep(residual_of, control_values, state_interval,
                      n_scan: int = 400) -> BifurcationDiagram:
    """Scalar-state sweep: equilibria with stability per control value, plus
    the control values where the equilibrium count changes.

    ``residual_of(c)`` receives a 1-d array of control values and returns a
    function evaluated elementwise on a state array of the same shape; the
    velocity must be ``decay * residual`` with ``decay < 0``. Every control
    value is scanned and bisected, and every root classified (_classify_1d),
    by one engine in calls of at most _BLOCK_ROWS points (a bound on peak
    memory). Tipping points are the midpoints of the grid cells where the
    count changes (true fold within one grid cell).
    """
    control_values = np.asarray(control_values, dtype=float)
    ctrl, roots, res = _equilibria(residual_of, control_values, state_interval, n_scan)
    stability = _classify_1d(residual_of, control_values[ctrl], roots)
    points = [
        EquilibriumPoint([x], [control_values[i]], str(stab), abs(float(r)))
        for i, x, r, stab in zip(ctrl, roots, res, stability)
    ]
    counts = np.bincount(ctrl, minlength=len(control_values))
    tipping = [
        float(0.5 * (control_values[i] + control_values[i + 1]))
        for i in range(len(control_values) - 1)
        if counts[i] != counts[i + 1]
    ]
    return BifurcationDiagram(control_values, points, tipping, counts)


def sweep_to_rows(diagram: BifurcationDiagram) -> list[tuple]:
    """Rows `(control_value, x*..., stability)` sorted by control then state."""
    rows = [
        (float(p.u[0]), *[float(v) for v in p.x_star], p.stability)
        for p in diagram.points
    ]
    rows.sort(key=lambda r: (r[0], r[1:-1]))
    return rows


# --- metrics ----------------------------------------------------------------------

def nrmse(states_window: np.ndarray, x_star, magnitude) -> np.ndarray:
    """Per-dimension RMSE over the window divided by the system magnitude."""
    states_window = np.atleast_2d(np.asarray(states_window, dtype=float))
    if states_window.shape[0] == 0:
        raise ValueError("empty window")
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    magnitude = np.broadcast_to(np.asarray(magnitude, dtype=float), x_star.shape)
    if np.any(magnitude <= 0):
        raise ValueError("magnitude must be positive")
    rmse = np.sqrt(np.mean((states_window - x_star) ** 2, axis=0))
    return rmse / magnitude


def iqr(samples) -> float:
    """Interquartile range with linear-interpolation percentiles."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 2:
        raise ValueError("need at least 2 samples")
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    return float(q75 - q25)


def contraction_bound(target_fn, x_star: float, radius: float,
                      n_samples: int = 101, h: float = 1e-6):
    """Sampled sup |d target/dx| over [x*-r, x*+r]; flags L < 1.

    ``target_fn`` maps a scalar state to a scalar (control already bound).
    """
    xs = np.linspace(x_star - radius, x_star + radius, n_samples)
    derivs = np.array([
        (float(target_fn(x + h)) - float(target_fn(x - h))) / (2.0 * h) for x in xs
    ])
    L = float(np.max(np.abs(derivs)))
    return L, L < 1.0


def summarize_targets(per_target_nrmse: list[np.ndarray], magnitude,
                      magnitude_definition: str) -> MetricsReport:
    """Aggregate per-target nRMSE vectors into the trial metrics report."""
    arr = np.asarray(per_target_nrmse, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return MetricsReport(
        nrmse_mean=arr.mean(axis=0),
        nrmse_std=arr.std(axis=0),
        within_5pct=(arr <= 0.05).mean(axis=0),
        within_2pct=(arr <= 0.02).mean(axis=0),
        magnitude=np.atleast_1d(np.asarray(magnitude, dtype=float)),
        magnitude_definition=magnitude_definition,
        per_target=[row.tolist() for row in arr],
    )
