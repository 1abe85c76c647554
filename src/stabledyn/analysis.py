"""Equilibrium discovery, stability classification, bifurcation sweeps,
tipping-point detection, and evaluation metrics (nRMSE, IQR and the
control summary document).

Root finding is deliberately simple and testable: a uniform scan with
bisection on sign changes in one dimension, damped Newton from a grid of
starts in higher dimensions. Sign-change cells that bisect onto a
discontinuity (the residual stays large) are discarded, and tangency roots
without a sign change can be missed; scan densities are chosen below
benchmark feature scales.

Every central-difference derivative in the package is one routine,
central_diff, with two callers: Newton's residual Jacobian J_r, and
control's gradient of a callable target map. Newton labels each root it
keeps from the eigenvalues of diag(decay) J_r, the velocity's Jacobian at
a root of velocity = decay * residual, in any dimension: stable when all
have negative real part (the linearization principle; Khalil, Nonlinear
Systems, 2002). Tolerances and step sizes are module constants.

In one dimension every root search is a bifurcation_sweep, the
equilibria at a single control value being a one-control sweep: residuals
take arrays and are evaluated elementwise, the (control x state) scan grid
is evaluated in blocks of whole control rows, and every bracket of every
control is bisected together. Each root is labelled by the direction in
which the residual crosses zero over its bracket, read off the scan
(velocity = decay * residual with decay < 0, so a rising residual is a
stable root), with no further residual call. No call gets more than
_BLOCK_ROWS points, which bounds the peak resident memory of a sweep; the
per-bracket arithmetic is that of a scalar scan and bisection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"


@dataclass
class BifurcationDiagram:
    control_values: np.ndarray
    tipping_points: list[float]
    counts: np.ndarray          # equilibria per control value
    # one entry per equilibrium, in control-index then state order
    u: np.ndarray               # its control value
    x_star: np.ndarray
    stability: np.ndarray       # STABLE, UNSTABLE or MARGINAL
    residual_norm: np.ndarray


# --- scalar root finding -------------------------------------------------------

# Most (control, state) points passed to one residual call. The scan runs
# in blocks of whole control rows under this cap, and bisection
# evaluates its brackets in chunks of it, so no call and no array grows
# with (controls x scan points). Peak RSS of a learned 401 x 401
# `bifurcate` run (2-core x86-64, numpy 2.4, OpenBLAS): 36.3 MB at 1024
# points per call, 40.1 MB at 4096, 200 MB with the whole grid in one
# call, which was also slower; 1024 is as fast as 4096.
_BLOCK_ROWS = 1024

_ROOT_TOL = 1e-10
_ROOT_DEDUP = 1e-6
_NEWTON_TOL = 1e-8
_NEWTON_DEDUP = 1e-4
_NEWTON_MAX_ITER = 80
_EIG_TOL = 1e-8
_FD_STEP = 1e-6


def central_diff(fn, x) -> np.ndarray:
    """Central differences of ``fn`` along the last axis of x, step h = _FD_STEP.

    x is one point (d,) or a batch (..., d); ``fn`` gets arrays of x's shape,
    two per coordinate. The quotients (fn(x + h e_j) - fn(x - h e_j)) / 2h
    stack on a new last axis: a Jacobian (..., m, d) when fn returns
    (..., m), a gradient (..., d) when it returns one value per point.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.shape[-1]):
        xp, xm = x.copy(), x.copy()
        xp[..., j] += _FD_STEP
        xm[..., j] -= _FD_STEP
        cols.append((np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2.0 * _FD_STEP))
    return np.stack(cols, axis=-1)


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


def _crossing_label(before, after) -> np.ndarray:
    """Stability labels of scalar roots from the residual at the two ends of
    each root's bracket. Velocity = decay * residual with decay < 0, so a
    residual that rises through zero (sign(after) - sign(before) > 0) is a
    stable root and one that falls an unstable one; ends of one sign, as at
    a tangency, or a non-finite end give no crossing: marginal."""
    finite = np.isfinite(before) & np.isfinite(after)
    rise = np.where(finite, np.sign(after) - np.sign(before), 0.0)
    return _label(-rise)


def _equilibria(residual_of, controls: np.ndarray, interval, n_scan: int):
    """Roots of ``residual_of(c)(x)`` on the interval for every control value.

    Returns (control index, root, residual, stability label) arrays, sorted
    by control index then root, with roots of one control closer than
    _ROOT_DEDUP merged. A bisected root is labelled from its scan cell's
    ends, an exact zero on the scan grid from its two neighbours in the
    scan (one past the interval's end counts as 0); see _crossing_label.
    """
    lo, hi = float(interval[0]), float(interval[1])
    xs = np.linspace(lo, hi, n_scan + 1)
    per_block = max(1, _BLOCK_ROWS // len(xs))
    # exact zeros on the grid: (control index, x, r before x, r after x);
    # sign-change cells: (control index, a, b, r(a), r(b))
    zeros = [(np.empty(0, dtype=int),) + (np.empty(0),) * 3]
    cells = [(np.empty(0, dtype=int),) + (np.empty(0),) * 4]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, len(controls), per_block):
            idx = np.arange(start, min(start + per_block, len(controls)))
            vals = _call_in_blocks(residual_of, np.repeat(controls[idx], len(xs)),
                                   np.tile(xs, len(idx))).reshape(len(idx), len(xs))
            padded = np.pad(vals, ((0, 0), (1, 1)))
            zi, zj = np.nonzero(vals == 0.0)
            zeros.append((idx[zi], xs[zj], padded[zi, zj], padded[zi, zj + 2]))
            fa, fb = vals[:, :-1], vals[:, 1:]
            ci, cj = np.nonzero(~((fa == 0.0) | (fb == 0.0) | (np.sign(fa) == np.sign(fb))))
            cells.append((idx[ci], xs[cj], xs[cj + 1], fa[ci, cj], fb[ci, cj]))
        zero_i, zero_x, zero_before, zero_after = map(np.concatenate, zip(*zeros))
        cell_i, cell_a, cell_b, cell_fa, cell_fb = map(np.concatenate, zip(*cells))
        m, r = _bisect(residual_of, controls[cell_i], cell_a, cell_b, cell_fa)
        # a cell whose bisection limit still has |r| > _ROOT_TOL hides a discontinuity
        kept = np.abs(r) <= _ROOT_TOL
    ctrl = np.concatenate([zero_i, cell_i[kept]])
    roots = np.concatenate([zero_x, m[kept]])
    res = np.concatenate([np.zeros(len(zero_x)), r[kept]])
    labels = _crossing_label(np.concatenate([zero_before, cell_fa[kept]]),
                             np.concatenate([zero_after, cell_fb[kept]]))
    order = np.lexsort((roots, ctrl))
    ctrl, roots, res, labels = ctrl[order], roots[order], res[order], labels[order]
    keep = np.zeros(len(roots), dtype=bool)
    last = -1
    for k in range(len(roots)):
        keep[k] = last < 0 or ctrl[k] != ctrl[last] or abs(roots[k] - roots[last]) > _ROOT_DEDUP
        if keep[k]:
            last = k
    return ctrl[keep], roots[keep], res[keep], labels[keep]


# --- multivariate root finding ---------------------------------------------------

def find_equilibria_nd(residual_fn, decay_fn, box, starts_per_axis: int = 6):
    """Damped Newton on r(x) = 0 from a grid of starts over a box, with
    central-difference Jacobians, for a field velocity = decay(x) * r(x).

    Each root kept is labelled from the eigenvalues of the velocity's
    Jacobian there, diag(decay(x*)) J_r(x*): r(x*) = 0, so the decay's own
    derivative drops out. Returns (roots (n, d), labels (n,), the norm of
    Newton's final residual at each root, n_failed_starts), roots in
    lexicographic order. Starts that do not reach ||r|| <= _NEWTON_TOL are
    counted, not silently dropped.
    """
    box = np.asarray(box, dtype=float).reshape(-1, 2)
    axes = [np.linspace(lo, hi, starts_per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    starts = np.stack([m.ravel() for m in mesh], axis=1)

    found: list[tuple[np.ndarray, str, float]] = []  # (root, label, residual norm)
    failed = 0
    for x0 in starts:
        x = x0.copy()
        r = np.asarray(residual_fn(x), dtype=float)
        ok = False
        for _ in range(_NEWTON_MAX_ITER):
            nr = np.linalg.norm(r)
            if nr <= _NEWTON_TOL:
                ok = True
                break
            jac = central_diff(residual_fn, x)
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
        if ok or np.linalg.norm(r) <= _NEWTON_TOL:
            if not any(np.linalg.norm(x - prev) <= _NEWTON_DEDUP for prev, _, _ in found):
                decay = np.asarray(decay_fn(x), dtype=float)
                jac = decay[..., None] * central_diff(residual_fn, x)
                found.append((x, str(_label(np.linalg.eigvals(jac).real.max())),
                              float(np.linalg.norm(r))))
        else:
            failed += 1
    found.sort(key=lambda row: tuple(row[0]))
    roots = np.asarray([row[0] for row in found]).reshape(-1, box.shape[0])
    labels = np.array([row[1] for row in found], dtype=str)
    return roots, labels, np.array([row[2] for row in found]), failed


# --- stability -------------------------------------------------------------------

def _label(max_real):
    """Stability label(s) from the largest real part of the Jacobian's
    eigenvalues."""
    return np.where(max_real < -_EIG_TOL, STABLE,
                    np.where(max_real > _EIG_TOL, UNSTABLE, MARGINAL))


# --- bifurcation sweeps -----------------------------------------------------------

def bifurcation_sweep(residual_of, control_values, state_interval,
                      n_scan: int = 400) -> BifurcationDiagram:
    """Scalar-state sweep: equilibria with stability per control value, plus
    the control values where the equilibrium count changes. One control
    value gives the equilibria at that control.

    ``residual_of(c)`` receives a 1-d array of control values and returns a
    function evaluated elementwise on a state array of the same shape; the
    velocity must be ``decay * residual`` with ``decay < 0``. Every control
    value is scanned and bisected by one engine in calls of at most
    _BLOCK_ROWS points (a bound on peak memory), and every root's label is
    read off its bracket (_crossing_label), so no residual call follows
    bisection's final check. Tipping points are the midpoints of the grid
    cells where the count changes (true fold within one grid cell).
    """
    control_values = np.asarray(control_values, dtype=float)
    ctrl, roots, res, labels = _equilibria(residual_of, control_values, state_interval, n_scan)
    counts = np.bincount(ctrl, minlength=len(control_values))
    tipping = [
        float(0.5 * (control_values[i] + control_values[i + 1]))
        for i in range(len(control_values) - 1)
        if counts[i] != counts[i + 1]
    ]
    return BifurcationDiagram(control_values, tipping, counts, control_values[ctrl], roots,
                              labels, np.abs(res))


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


def summarize_targets(scores, magnitude, magnitude_definition: str) -> dict:
    """The control summary document of per-target nRMSE ``scores``, a
    (trials, targets, d) array: mean, spread and the shares within 5% and
    2% per dimension, over every (trial, target) pair in trial order."""
    arr = np.asarray(scores, dtype=float)
    arr = arr.reshape(-1, arr.shape[-1])
    return {
        "nrmse_mean": arr.mean(axis=0).tolist(),
        "nrmse_std": arr.std(axis=0).tolist(),
        "within_5pct": (arr <= 0.05).mean(axis=0).tolist(),
        "within_2pct": (arr <= 0.02).mean(axis=0).tolist(),
        "magnitude": np.atleast_1d(np.asarray(magnitude, dtype=float)).tolist(),
        "magnitude_definition": magnitude_definition,
        "per_target": arr.tolist(),
    }
