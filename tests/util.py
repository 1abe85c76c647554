"""Shared test oracles: central finite differences and tolerance helpers.

These stay independent of the library's own derivative code paths. Also
the test fields, the benchmark checkpoint, and the roots of a scalar
residual at one control.
"""

from pathlib import Path

import numpy as np

from stabledyn.analysis import bifurcation_sweep
from stabledyn.field import Featurizer, StructuredField
from stabledyn.nnet import MlpSpec, init_params, param_count

# the trained sym-hysteresis field the benchmark's `analyze` workload runs on
CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "sym-hysteresis-field.json"


def make_field(
    dim=1,
    control_dim=1,
    hidden=(6,),
    decay_bounds=(-1.0, -0.1),
    target_bounds=(-2.0, 2.0),
    featurizer=None,
    seed=0,
    weight_scale=1.0,
    domain=None,
):
    """Small random structured field for tests."""
    feat_len = featurizer.out_dim if featurizer is not None else dim
    decay_spec = MlpSpec((dim, *hidden, dim), output_bounds=decay_bounds)
    target_spec = MlpSpec((feat_len + control_dim, *hidden, dim), output_bounds=target_bounds)
    rng = np.random.default_rng(seed)
    dp = init_params(decay_spec, seed) * weight_scale
    tp = init_params(target_spec, seed + 1) * weight_scale
    dp += rng.normal(scale=0.05 * weight_scale, size=param_count(decay_spec))
    tp += rng.normal(scale=0.05 * weight_scale, size=param_count(target_spec))
    return StructuredField(
        dim=dim,
        control_dim=control_dim,
        decay_spec=decay_spec,
        decay_params=dp,
        target_params=tp,
        target_spec=target_spec,
        featurizer=featurizer,
        domain=domain,
    )


def make_constant_field(dim=1, control_dim=1, decay_bounds=(-1.0, 0.0), target_bounds=(0.0, 1.0)):
    """Zero-parameter field: decay and target are the bound midpoints."""
    decay_spec = MlpSpec((dim, dim), output_bounds=decay_bounds)
    target_spec = MlpSpec((dim + control_dim, dim), output_bounds=target_bounds)
    return StructuredField(
        dim=dim,
        control_dim=control_dim,
        decay_spec=decay_spec,
        decay_params=np.zeros(param_count(decay_spec)),
        target_spec=target_spec,
        target_params=np.zeros(param_count(target_spec)),
    )


def central_diff_grad(fn, x0, h=1e-5):
    """Gradient of scalar fn at x0 by central differences, one entry at a time."""
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return g


def assert_close(actual, expected, rtol, floor=1e-6, label=""):
    """Elementwise |a-e| <= rtol*max(|a|,|e|,floor); floor guards zero grads."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = np.maximum(np.maximum(np.abs(actual), np.abs(expected)), floor)
    err = np.abs(actual - expected)
    worst = np.max(err / scale) if err.size else 0.0
    assert np.all(err <= rtol * scale), f"{label} worst rel err {worst:.3e} > {rtol:.1e}"


def roots_at(residual_fn, interval, n_scan=400):
    """Sorted roots of an elementwise scalar residual on the interval: the
    one-control sweep that `equilibria` runs for a scalar-state system."""
    diagram = bifurcation_sweep(lambda c: residual_fn, [0.0], interval, n_scan)
    return diagram.x_star
