"""Reference formulas for the paper's convergence and stability claims,
used only by the tests: the linear simplification target(x, u) = G u of
feedback control (minimum-norm, ridge, gradient descent and continuous
gradient flow), a sampled contraction bound of a scalar target map, and
the stability of an equilibrium read from the central-difference Jacobian
of a whole velocity field, which the program's own labels (each scalar
root's bracket, each Newton root's diag(decay) J_r) are checked against.

The gradient-descent rate is the textbook one for a strongly convex
quadratic (Nesterov, Introductory Lectures on Convex Optimization, 2004);
the stability rule is the linearization principle (Khalil, Nonlinear
Systems, 2002): stable when every eigenvalue has negative real part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stabledyn.analysis import _label, central_diff
from stabledyn.integrate import TimeGrid, rk4_solve_batch

_CONTRACTION_SAMPLES = 101
_EQUILIBRIUM_TOL = 1e-6


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


def gd_linear(prob: LinearControlProblem, u0, eta: float, iters: int) -> GdResult:
    """u_{k+1} = u_k - eta G^T (G u_k - x_ref), tracking distance to the
    minimum-norm solution; flags runaway iterates (norm above 1e6 or
    non-finite) and stops there."""
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
        if np.linalg.norm(u) > 1e6 or not np.all(np.isfinite(u)):
            diverged = True
            break
    return GdResult(np.asarray(iterates), np.asarray(errors), diverged)


def gradient_flow_linear(prob: LinearControlProblem, u0, eta: float, grid: TimeGrid):
    """Integrate du/dt = -eta G^T (G u - x_ref) with RK4; returns (times, u(t))."""
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


# --- contraction -------------------------------------------------------------

def contraction_bound(target_fn, x_star: float, radius: float):
    """Sup |d target/dx| sampled at _CONTRACTION_SAMPLES points of
    [x*-r, x*+r]; flags L < 1.

    ``target_fn`` maps states to targets elementwise (control already
    bound); it is called on (_CONTRACTION_SAMPLES, 1) arrays.
    """
    xs = np.linspace(x_star - radius, x_star + radius, _CONTRACTION_SAMPLES)
    L = float(np.max(np.abs(central_diff(target_fn, xs[:, None]))))
    return L, L < 1.0


# --- stability ---------------------------------------------------------------

def classify_stability(velocity_fn, x_star) -> str:
    """Stability of an equilibrium in any dimension, from the largest real
    part of the eigenvalues of the velocity field's central-difference
    Jacobian."""
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    v = np.atleast_1d(np.asarray(velocity_fn(x_star), dtype=float))
    if np.linalg.norm(v) > _EQUILIBRIUM_TOL:
        raise ValueError(f"not an equilibrium: |velocity| = {np.linalg.norm(v):.3e}")
    jac = central_diff(lambda x: np.atleast_1d(velocity_fn(x)), x_star)
    return str(_label(np.linalg.eigvals(jac).real.max()))
