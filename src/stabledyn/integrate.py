"""Time steppers and derivative estimation.

Deterministic integration uses classical fixed-step RK4. Gradients of
trajectory functionals differentiate the computed RK4 recursion
(discretize-then-differentiate): `rk4_solve_unrolled_grad` takes the
states of one value forward, re-linearizes the four stages of every step
in four wide calls, and runs the reverse over steps on the stage
Jacobians, which it builds from the input-only
`field.velocity_input_vjp_cached`, and takes the parameter gradient from
the parameter-only `field.velocity_vjp_cached`. The wide calls recompute
each stage from the solved states. For a field with single-output nets
(sym-hysteresis, budworm) they can see stage values a few ulps off those
of the narrower solve, because BLAS rounds a 1-column product by row
position (`nnet._BLOCK_ROWS`). So the gradient is that of the recursion
through the solved states, not always bit for bit that of the stages the
solver took. The wide stage caches, each hidden layer's SiLU output and
derivative, go into a `StageTape` that the caller owns and passes to
every call (`training.TrajMatchingObjective` keeps one), so repeated
gradients reuse the same memory; the four stages share one scratch array
per width for the sigmoids. `rk4_solve_batch`
records every node, or only every k-th one for callers that keep a sample
stride. The stochastic (Euler-Maruyama) loop of closed-loop control lives
in `control.feedback_simulate`.

Trajectory CSV format: one table per file, header then one row per sample,
columns ``traj_id, t, x_0..x_{d-1}, u_0..u_{q-1}``, doubles printed with 17
significant digits (lossless round trip). `read_trajectories_csv` takes a
path or an open binary file. It counts the lines in fixed-size chunks and
parses the body in one `np.loadtxt` pass on the file itself, so the file's
bytes are never held whole; only a rejected row reads the body again, to
name its line.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .field import (StructuredField, velocity_cached, velocity_input_vjp_cached,
                    velocity_vjp_cached)
from .nnet import NonFiniteError, hidden_arrays


class DatasetError(ValueError):
    """The trajectories cannot serve the requested computation."""


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    t1: float
    n_steps: int

    def __post_init__(self):
        if not (self.t1 > self.t0):
            raise ValueError("need t1 > t0")
        if self.n_steps < 1:
            raise ValueError("need n_steps >= 1")
        if self.n_steps > sys.float_info.max:  # h divides by it as a float
            raise ValueError("need n_steps within float range")
        if not self.h > 0.0:  # (t1 - t0) / n_steps can underflow to 0
            raise ValueError(f"the step (t1 - t0) / n_steps = {self.h!r} is not positive")

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / self.n_steps

    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.n_steps + 1)


@dataclass
class Trajectory:
    """Uniformly sampled time series under one constant control vector."""

    times: np.ndarray
    states: np.ndarray
    control: np.ndarray
    traj_id: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        self.control = np.atleast_1d(np.asarray(self.control, dtype=float))
        if self.states.ndim == 1:
            self.states = self.states[:, None]
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if not np.all(np.diff(self.times) > 0):  # a nan time fails here too
            raise ValueError("times must be strictly increasing")

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def _check_finite(x: np.ndarray, step: int) -> None:
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"non-finite state at step {step}")


def rk4_step_batch(rhs, x: np.ndarray, u: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(x, u)
    k2 = rhs(x + (0.5 * h) * k1, u)
    k3 = rhs(x + (0.5 * h) * k2, u)
    k4 = rhs(x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_solve_batch(rhs, x0: np.ndarray, u: np.ndarray, grid: TimeGrid,
                    every: int = 1) -> np.ndarray:
    """Integrate a batch of initial states and record the nodes 0, every,
    2 * every, ..., n_steps; returns (B, n_steps // every + 1, d). Every
    step is taken (and checked) either way, so the recorded nodes have the
    bits of the full solve's ``[:, ::every]``."""
    if every < 1 or grid.n_steps % every:
        raise ValueError(f"every must be a positive divisor of n_steps {grid.n_steps}, "
                         f"got {every}")
    x = np.asarray(x0, dtype=float)
    out = np.empty((x.shape[0], grid.n_steps // every + 1, x.shape[1]))
    out[:, 0] = x
    h = grid.h
    for n in range(1, grid.n_steps + 1):
        x = rk4_step_batch(rhs, x, u, h)
        _check_finite(x, n)
        if n % every == 0:
            out[:, n // every] = x
    return out


def rk4_solve(rhs, x0, u, grid: TimeGrid, traj_id: int = 0) -> Trajectory:
    """Classical RK4 on dx/dt = rhs(x, u), recording every grid node."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    states = rk4_solve_batch(lambda xb, ub: np.atleast_2d(rhs(xb[0], ub[0])),
                             x0[None, :], u[None, :], grid)[0]
    return Trajectory(grid.times(), states, u, traj_id=traj_id)


class StageTape:
    """The hidden-layer arrays of the four wide stage linearizations in
    `rk4_solve_unrolled_grad`, kept from one call to the next.

    Each stage keeps the (a, p) pair of `nnet.hidden_arrays` per hidden
    layer, each holding both nets on the model axis: the SiLU output and
    derivative its reverses read. The sigmoid is scratch, one array per
    width that the four stage calls overwrite in turn. A training loop that
    passes one tape to every call writes each batch's stage caches into the
    same memory, so the allocator neither hands those megabytes back to the
    OS after a batch nor faults them in again for the next. The capacity
    only grows, to the largest row count asked for; a smaller call writes
    into arrays on the first bytes of each. Arrays are made anew only when a
    call needs more rows or nets of other widths. A tape serves one call at
    a time: each call overwrites the caches of the one before.
    """

    def __init__(self):
        self._widths, self._rows, self._arrays = None, 0, None

    def stages(self, field: StructuredField, rows: int):
        """Four `nnet.hidden_arrays` of ``field.layers``, one per RK4 stage,
        each of ``rows`` rows and all sharing one scratch; the arrays of the
        previous call are overwritten."""
        widths = field.decay_spec.layer_sizes[1:-1]
        if widths != self._widths or rows > self._rows:
            self._widths, self._rows, scratch = widths, rows, {}
            self._arrays = [hidden_arrays(field.layers, rows, scratch) for _ in range(4)]
        return [[tuple(_first_rows(a, rows) for a in layer) for layer in stage]
                for stage in self._arrays]


def _first_rows(arr: np.ndarray, rows: int) -> np.ndarray:
    """A stack array of ``rows`` rows (`nnet.hidden_arrays`) on the first
    bytes of one of more rows."""
    shape = (*arr.shape[:-2], rows, arr.shape[-1])
    return arr.reshape(-1)[:math.prod(shape)].reshape(shape)


def rk4_solve_unrolled_grad(
    field: StructuredField,
    states: np.ndarray,
    u: np.ndarray,
    grid: TimeGrid,
    cotangents: np.ndarray,
    tape: StageTape,
) -> np.ndarray:
    """Exact parameter gradient of sum_i <cotangent_i, x(t_i)> through RK4.

    ``states`` is the (B, n_steps+1, d) solve `rk4_solve_batch` returned for
    this field, ``u`` is (B, q), ``cotangents`` is (B, n_steps+1, d). Returns
    the flat parameter gradient. The stage caches are written into
    ``tape``, a `StageTape` the caller keeps across calls.

    Given the states, no step's stage inputs depend on another step, so the
    four RK4 stages of all steps are re-linearized in four wide calls on
    (n_steps*B)-row step-major stacks. The reverse over steps then runs on
    each row's stage Jacobians dv/dx (d unit-cotangent input-only VJPs per
    stage) and calls no net; the parameter gradient is one wide
    parameter-only VJP per stage.
    """
    states = np.asarray(states, dtype=float)
    u = np.asarray(u, dtype=float)
    cotangents = np.asarray(cotangents, dtype=float)
    B, n_nodes, d = states.shape
    if n_nodes != grid.n_steps + 1:
        raise ValueError("states must be (batch, n_steps+1, dim)")
    if cotangents.shape != states.shape:
        raise ValueError("cotangent array must be (batch, n_steps+1, dim)")
    n_steps, h = grid.n_steps, grid.h

    # row n*B + b is trajectory b at the start of step n
    x = states[:, :-1].transpose(1, 0, 2).reshape(n_steps * B, d)
    uu = np.tile(u, (n_steps, 1))
    out = tape.stages(field, n_steps * B)
    k1, c1 = velocity_cached(field, x, uu, out[0])
    k2, c2 = velocity_cached(field, x + (0.5 * h) * k1, uu, out[1])
    k3, c3 = velocity_cached(field, x + (0.5 * h) * k2, uu, out[2])
    _, c4 = velocity_cached(field, x + h * k3, uu, out[3])
    caches = (c1, c2, c3, c4)

    # jac[s][r, i, j] = d v_i / d x_j at stage s + 1 of row r
    jac = np.empty((4, n_steps, B, d, d))
    unit = np.zeros((n_steps * B, d))
    for i in range(d):
        unit[:, i] = 1.0
        for s, cache in enumerate(caches):
            row_i = velocity_input_vjp_cached(field, cache, unit)[0]
            jac[s, :, :, i] = row_i.reshape(n_steps, B, d)
        unit[:, i] = 0.0

    # dk[s, n] is the cotangent on stage s + 1 of step n
    dk = np.empty((4, n_steps, B, d))
    j1, j2, j3, j4 = jac
    lam = cotangents[:, n_steps]
    for n in range(n_steps - 1, -1, -1):
        dk[3, n] = (h / 6.0) * lam
        dy4 = np.matmul(dk[3, n, :, None, :], j4[n])[:, 0]
        dk[2, n] = (h / 3.0) * lam + h * dy4
        dy3 = np.matmul(dk[2, n, :, None, :], j3[n])[:, 0]
        dk[1, n] = (h / 3.0) * lam + (0.5 * h) * dy3
        dy2 = np.matmul(dk[1, n, :, None, :], j2[n])[:, 0]
        dk[0, n] = (h / 6.0) * lam + (0.5 * h) * dy2
        dy1 = np.matmul(dk[0, n, :, None, :], j1[n])[:, 0]
        lam = lam + dy4 + dy3 + dy2 + dy1 + cotangents[:, n]

    pgrad = np.zeros(field.params.shape)
    for s, cache in enumerate(caches):
        pgrad += velocity_vjp_cached(field, cache, dk[s].reshape(n_steps * B, d))
    return pgrad


def finite_diff(traj: Trajectory) -> np.ndarray:
    """Derivative estimates: centered inside, one-sided Euler at the ends."""
    t, x = traj.times, traj.states
    n = len(t)
    if n < 2:
        raise DatasetError(f"trajectory {traj.traj_id}: finite differences need at least "
                           f"2 samples, got {n}")
    d = np.empty_like(x)
    d[0] = (x[1] - x[0]) / (t[1] - t[0])
    d[-1] = (x[-1] - x[-2]) / (t[-1] - t[-2])
    if n > 2:
        d[1:-1] = (x[2:] - x[:-2]) / (t[2:] - t[:-2])[:, None]
    return d


# --- CSV interchange ---------------------------------------------------------

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _header(d: int, q: int) -> list[str]:
    return ["traj_id", "t"] + [f"x_{i}" for i in range(d)] + [f"u_{i}" for i in range(q)]


def write_trajectories_csv(path, trajectories: list[Trajectory]) -> None:
    if not trajectories:
        raise ValueError("no trajectories to write")
    d = trajectories[0].dim
    q = len(trajectories[0].control)
    # trajectories of one dataset share a time grid (one per truncation
    # group), so each grid's t cells are formatted once; '%.17g' % v is
    # format(v, '.17g')
    t_cells: dict[bytes, list[str]] = {}
    x_cells = ",%.17g" * d
    with open(path, "w") as fh:
        fh.write(",".join(_header(d, q)) + "\n")
        for traj in trajectories:
            key = traj.times.tobytes()
            if key not in t_cells:
                t_cells[key] = [_fmt(t) for t in traj.times]
            u_cells = "".join("," + _fmt(v) for v in traj.control)
            row = f"{traj.traj_id},%s{x_cells}{u_cells}\n"
            # the row-major cells: t, x_0 .. x_{d-1} per row
            cells = [None] * (len(traj.times) * (1 + d))
            cells[:: 1 + d] = t_cells[key]
            for j, column in enumerate(traj.states.T.tolist(), start=1):
                cells[j :: 1 + d] = column
            fh.write(row * len(traj.times) % tuple(cells))


def _bad_row(lines, n_cells: int) -> str | None:
    """Why the first malformed body line is rejected, or None if every line
    parses; ``lines`` iterates the body lines, each ending in its newline
    but the last. The slow path behind a failed or short `np.loadtxt`."""
    for i, line in enumerate(lines, start=2):
        if not line.strip():
            return f"line {i} is blank"
        cells = line.decode().rstrip("\r\n").split(",")
        if len(cells) != n_cells:
            return f"line {i}: expected {n_cells} cells, found {len(cells)}"
        try:
            int(cells[0])
        except ValueError:
            return f"line {i} has traj_id {cells[0]!r}, not an integer"
        try:
            [float(c) for c in cells[1:]]
        except ValueError as err:
            return f"line {i}: {err}"
    return None


# the bytes `read_chunks` reads at a time
_CHUNK_BYTES = 1 << 16


def read_chunks(fh):
    """The bytes of the open binary file ``fh`` from its start, one
    fixed-size chunk at a time, so a pass over the file never holds it
    whole."""
    fh.seek(0)
    return iter(lambda: fh.read(_CHUNK_BYTES), b"")


def _line_count(fh) -> int:
    """The lines of the open binary file ``fh``, a last one without a
    newline included."""
    count, last = 0, b"\n"
    for chunk in read_chunks(fh):
        count += chunk.count(b"\n")
        last = chunk[-1:]
    return count + (last != b"\n")


def _read_table(fh):
    """The body of the open binary CSV file ``fh`` as one `np.loadtxt`
    table of (traj_id, values) rows, and the state width d; None for a body
    of no lines."""
    n_lines = _line_count(fh) - 1
    fh.seek(0)
    first = fh.readline()
    header = first.decode().strip().split(",")
    d = sum(1 for c in header if c.startswith("x_"))
    q = sum(1 for c in header if c.startswith("u_"))
    n_cells = 2 + d + q
    if first and header != _header(d, q):
        raise ValueError(f"malformed trajectory CSV: header {','.join(header)!r} is not "
                         f"{','.join(_header(d, q))!r}")
    if n_lines <= 0:
        return None, d
    row = np.dtype([("traj_id", np.int64), ("values", float, (n_cells - 1,))])
    try:
        with warnings.catch_warnings():
            # a body of blank lines only; the row count below rejects it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(fh, delimiter=",", comments=None, dtype=row, ndmin=1,
                               encoding="utf-8")
        # loadtxt skips blank lines, so a short count means one was there
        failure = None if len(table) == n_lines else "a blank line"
    except ValueError as err:
        failure = err
    if failure is not None:
        # read the body again, line by line, to name the bad one
        fh.seek(0)
        fh.readline()
        raise ValueError(f"malformed trajectory CSV: {_bad_row(fh, n_cells) or failure}")
    return table, d


def read_trajectories_csv(source) -> list[Trajectory]:
    """Trajectories from a CSV path or an open binary file (read from its
    start), in the order their traj_ids first appear. The body is parsed as
    one table, straight from the file; a row with the wrong cell count, a
    non-numeric cell, a non-integer traj_id or a blank line raises
    ValueError naming its line, and a trajectory whose control cells differ
    between its rows one naming the trajectory."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            table, d = _read_table(fh)
    else:
        table, d = _read_table(source)
    if table is None:
        return []

    ids, values = table["traj_id"], table["values"]
    _, first, group = np.unique(ids, return_index=True, return_inverse=True)
    # number the groups in first-seen order; rows of one trajectory usually
    # sit together already, and then no row moves
    group = np.argsort(np.argsort(first))[group]
    if np.any(np.diff(group) < 0):
        perm = np.argsort(group, kind="stable")
        ids, values, group = ids[perm], values[perm], group[perm]
    bounds = np.searchsorted(group, np.arange(len(first) + 1))
    # a trajectory holds one control: every row repeats its first row's,
    # nan cells included
    controls = values[:, 1 + d :]
    firsts = controls[bounds[:-1]][group]
    same = ((controls == firsts) | (np.isnan(controls) & np.isnan(firsts))).all(axis=1)
    if not same.all():
        raise ValueError(f"malformed trajectory CSV: trajectory {ids[np.argmin(same)]} "
                         f"changes its control between rows")
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rows = values[lo:hi]
        out.append(
            Trajectory(
                times=rows[:, 0],
                states=rows[:, 1 : 1 + d],
                control=rows[0, 1 + d :],
                traj_id=int(ids[lo]),
            )
        )
    return out
