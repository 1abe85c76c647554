"""The structured vector field: velocity(x,u) = decay(x) * (x - target(x,u)).

`decay` is an MLP bounded strictly below zero, so every component of the
state is pulled toward the matching component of `target`, the implicit
equilibrium map. Scalar benchmarks may featurize the state with cosine
modes before it enters the target net; the control vector is appended raw.

The two nets have the same hidden widths, so the field stacks their
weights once per parameter vector on `nnet`'s model axis (``layers``,
decay first). Every velocity evaluation runs both nets as that one stacked
pass; the target-only calls (`eval_target`, `residual`, `target_cached`)
run the target net alone, through `_target_forward`, and `eval_decay` the
decay net alone. Value-only calls (`eval_decay`, `eval_target`,
`eval_velocity`, `residual`) take the cache-free, row-blocked passes, so
they hold at most one block of activations whatever the batch size. Each
map a caller differentiates has one cached forward, and its reverses
replay that cache, so a caller that needs both value and gradient runs
each net once:

- velocity: `velocity_cached` keeps the stacked cache, written into the
  caller's `nnet.hidden_arrays` when it passes them (the RK4 stage tape of
  `integrate` does, its four stages sharing one scratch array per width).
  `velocity_vjp_cached` replays it for the flat parameter gradient only
  (training reads nothing else), and `velocity_input_vjp_cached` for the
  input gradients only, from which the RK4 stage Jacobians are built.
- target: `target_cached` keeps the target net's cache and
  `target_vjp(field, cache, cotangent)` replays it for the input gradients
  (x_grad, u_grad) only: feedback control reads nothing else. At the
  input level control reads u_grad alone, so `state_grad=False` returns
  just that, from the same reverse, without the featurizer derivative
  x_grad needs.

A checkpoint holds the two nets, the featurizer and the system the field
was trained for; `read_checkpoint` returns the field and that system. The
box that analysis scans belongs to the system (`benchmarks.SYSTEM_BOX`),
not to the field, so the ``domain`` key of older checkpoints is ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import nnet
from .nnet import MlpSpec


@dataclass(frozen=True)
class Featurizer:
    """Cosine state features: x -> (x, cos(k^2 pi (x-a)/(b-a)), k=1..num_modes)."""

    a: float
    b: float
    num_modes: int = 4

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"featurizer requires finite a < b, got a={self.a}, b={self.b}")
        # no modes is no featurizer: StructuredField(featurizer=None)
        if self.num_modes < 1:
            raise ValueError("num_modes must be >= 1")
        ks = np.arange(1, self.num_modes + 1, dtype=float)
        object.__setattr__(self, "_freqs", ks * ks * math.pi / (self.b - self.a))

    @property
    def out_dim(self) -> int:
        return 1 + self.num_modes

    def frequencies(self) -> np.ndarray:
        return self._freqs


def featurize(x, cfg: Featurizer, control=None) -> np.ndarray:
    """Feature vector for scalar state(s) x; shape (..., 1 + num_modes).
    With ``control``, an (N, q) batch for N states, each row's features are
    followed by its control: the target net's (N, 1 + num_modes + q) input,
    built in one concatenation."""
    col = np.asarray(x, dtype=float)[..., None]
    parts = [col, np.cos(cfg.frequencies() * (col - cfg.a))]
    if control is not None:
        parts.append(control)
    return np.concatenate(parts, axis=-1)


def featurize_dx(x, cfg: Featurizer) -> np.ndarray:
    """d(features)/dx, same trailing shape as featurize."""
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    out = np.empty((flat.size, cfg.out_dim))
    out[:, 0] = 1.0
    w = cfg.frequencies()
    np.multiply(-w, np.sin(w * (flat[:, None] - cfg.a)), out=out[:, 1:])
    return out.reshape(arr.shape + (cfg.out_dim,))


@dataclass
class StructuredField:
    """A trained or fresh model: two MLPs of the same hidden widths plus
    an optional featurization of the target net's state input."""

    dim: int
    control_dim: int
    decay_spec: MlpSpec
    decay_params: np.ndarray
    target_spec: MlpSpec
    target_params: np.ndarray
    featurizer: Featurizer | None = None  # None: the target net reads x itself

    def __post_init__(self):
        if self.decay_spec.in_dim != self.dim or self.decay_spec.out_dim != self.dim:
            raise ValueError("decay net must map state dim to state dim")
        # outputs are strictly inside the bounds, so hi = 0 still keeps decay < 0
        if self.decay_spec.output_bounds[1] > 0:
            raise ValueError("decay net upper bound must be <= 0")
        if self.featurizer is not None and self.dim != 1:
            raise ValueError("cosine featurization is defined for scalar states only")
        feat_len = self.feature_dim
        if self.target_spec.in_dim != feat_len + self.control_dim:
            raise ValueError(
                f"target net input must be {feat_len}+{self.control_dim}, "
                f"got {self.target_spec.in_dim}"
            )
        if self.target_spec.out_dim != self.dim:
            raise ValueError("target net must output the state dim")
        hidden = (self.decay_spec.layer_sizes[1:-1], self.target_spec.layer_sizes[1:-1])
        if hidden[0] != hidden[1]:
            raise ValueError(f"decay and target nets must have the same hidden widths, got "
                             f"{list(hidden[0])} for decay and {list(hidden[1])} for target")
        # the weights as every net pass takes them: both nets on one model
        # axis, decay first, and each net alone
        self.layers = nnet.stack_params((self.decay_spec, self.target_spec),
                                        (self.decay_params, self.target_params))
        self.decay_layers = nnet.split_params(self.decay_spec, self.decay_params)
        self.target_layers = nnet.split_params(self.target_spec, self.target_params)

    @property
    def feature_dim(self) -> int:
        return self.dim if self.featurizer is None else self.featurizer.out_dim

    # flat parameter vector over both nets, decay first
    @property
    def params(self) -> np.ndarray:
        return np.concatenate([self.decay_params, self.target_params])

    def with_params(self, vec: np.ndarray) -> "StructuredField":
        n_f = nnet.param_count(self.decay_spec)
        n_g = nnet.param_count(self.target_spec)
        if vec.shape != (n_f + n_g,):
            raise ValueError("parameter vector length mismatch")
        return replace(self, decay_params=vec[:n_f].copy(), target_params=vec[n_f:].copy())


def _batch_xu(field: StructuredField, x, u):
    x2d, xs = nnet._as_batch(x, field.dim, "state")
    u2d, us = nnet._as_batch(u, field.control_dim, "control")
    if x2d.shape[0] != u2d.shape[0]:
        if u2d.shape[0] == 1:
            u2d = np.broadcast_to(u2d, (x2d.shape[0], field.control_dim))
        else:
            raise ValueError("state and control batch sizes disagree")
    return x2d, u2d, xs and us


def target_input(field: StructuredField, x2d: np.ndarray, u2d: np.ndarray) -> np.ndarray:
    if field.featurizer is None:
        return np.concatenate([x2d, u2d], axis=1)
    return featurize(x2d[:, 0], field.featurizer, u2d)


def _target_forward(field: StructuredField, x2d: np.ndarray, u2d: np.ndarray,
                    cached: bool = False):
    """target(x,u) on a batch of states and controls; with ``cached``,
    (target(x,u), cache)."""
    x_in = target_input(field, x2d, u2d)
    if not cached:
        return nnet.mlp_values(field.target_layers, (x_in,))
    return nnet.forward_cached(field.target_spec, field.target_layers, x_in)


def eval_decay(field: StructuredField, x) -> np.ndarray:
    """decay(x); strictly negative elementwise."""
    x2d, single = nnet._as_batch(x, field.dim, "state")
    y = nnet.mlp_values(field.decay_layers, (x2d,))
    return y[0] if single else y


def eval_target(field: StructuredField, x, u) -> np.ndarray:
    """target(x,u); the implicit equilibrium map."""
    x2d, u2d, single = _batch_xu(field, x, u)
    y = _target_forward(field, x2d, u2d)
    return y[0] if single else y


def eval_velocity(field: StructuredField, x, u) -> np.ndarray:
    """velocity(x,u) = decay(x) * (x - target(x,u)), elementwise."""
    x2d, u2d, single = _batch_xu(field, x, u)
    f, g = nnet.mlp_values(field.layers, (x2d, target_input(field, x2d, u2d)))
    v = f * (x2d - g)
    return v[0] if single else v


def residual(field: StructuredField, x, u) -> np.ndarray:
    """x - target(x,u); zero exactly at implicit equilibria."""
    x2d, u2d, single = _batch_xu(field, x, u)
    r = x2d - _target_forward(field, x2d, u2d)
    return r[0] if single else r


def _target_input_vjp(field: StructuredField, x2d: np.ndarray, gin_grad: np.ndarray):
    """Map a gradient on the target-net input rows back to (x_grad, u_grad)."""
    feat_len = field.feature_dim
    gfeat = gin_grad[:, :feat_len]
    gu = gin_grad[:, feat_len:]
    if field.featurizer is None:
        return gfeat, gu
    dfeat = featurize_dx(x2d[:, 0], field.featurizer)  # (N, feat_len)
    return np.add.reduce(gfeat * dfeat, axis=1, keepdims=True), gu


def target_cached(field: StructuredField, x, u):
    """target(x,u), as `eval_target` returns it, plus the cache that
    `target_vjp` replays for the same (x, u)."""
    x2d, u2d, single = _batch_xu(field, x, u)
    g, g_cache = _target_forward(field, x2d, u2d, cached=True)
    return (g[0] if single else g), (x2d, single, g_cache)


def target_vjp(field: StructuredField, cache, cotangent, state_grad: bool = True):
    """Reverse-mode grads of <cotangent, target(x,u)> in the inputs, replaying
    the cache `target_cached` returned for (x, u).

    Returns (x_grad, u_grad), per row (squeezed for single inputs); without
    ``state_grad``, u_grad alone, the same bits, and no featurizer
    derivative is taken. The target net's parameter gradient is not built.
    """
    x2d, single, g_cache = cache
    c2d = np.asarray(cotangent, dtype=float).reshape(x2d.shape[0], field.dim)
    gin_grad = nnet.mlp_input_vjp(g_cache, c2d)[0]
    if not state_grad:
        gu = gin_grad[:, field.feature_dim:]
        return gu[0] if single else gu
    gx, gu = _target_input_vjp(field, x2d, gin_grad)
    if single:
        return gx[0], gu[0]
    return gx, gu


def velocity_cached(field: StructuredField, x2d: np.ndarray, u2d: np.ndarray, out=None):
    """Batched velocity plus the cache needed to replay the reverse pass.

    Hot path for unrolled solvers: no dim re-validation, 2-d arrays only.
    ``out``, when given, is the `nnet.hidden_arrays` of ``field.layers`` for
    the batch's row count; the nets' hidden layers are written into them
    (same bits), and the cache holds their kept arrays until the caller
    reuses them. Their scratch may be shared with other calls' ``out``.
    """
    outputs, net_cache = nnet.mlp_forward(
        field.layers, (x2d, target_input(field, x2d, u2d)), out)
    # (decay, x - target): the target's slice becomes the difference
    f, diff = outputs[0], np.subtract(x2d, outputs[1], out=outputs[1])
    return f * diff, (x2d, f, diff, outputs, net_cache)


def _net_cotangents(cache, cotangent2d: np.ndarray) -> np.ndarray:
    """Each net's output cotangent of <cotangent, velocity>, as a model-axis
    stack: cotangent * (x - target) for the decay, -(cotangent * decay) for
    the target."""
    cots = cotangent2d * cache[3][::-1]
    np.negative(cots[1], out=cots[1])
    return cots


def velocity_vjp_cached(field: StructuredField, cache, cotangent2d: np.ndarray) -> np.ndarray:
    """Reverse pass over a `velocity_cached` evaluation in the parameters
    only: the flat gradient over decay params then target params, summed
    over the batch. No input gradient is built; `velocity_input_vjp_cached`
    replays the same cache for those."""
    return nnet.mlp_backward(cache[4], _net_cotangents(cache, cotangent2d))


def velocity_input_vjp_cached(field: StructuredField, cache, cotangent2d: np.ndarray):
    """Reverse pass over a `velocity_cached` evaluation in the inputs only.

    Returns (x_grad, u_grad) per row; both nets' reverse runs through
    `nnet.mlp_input_vjp`, so no parameter gradient is built.
    """
    x2d, f, _, _, net_cache = cache
    fx, gin_grad = nnet.mlp_input_vjp(net_cache, _net_cotangents(cache, cotangent2d))
    gx_t, gu = _target_input_vjp(field, x2d, gin_grad)
    return cotangent2d * f + fx + gx_t, gu


# --- checkpointing -----------------------------------------------------------

def field_to_dict(field: StructuredField, seed: int | None = None,
                  system: str | None = None) -> dict:
    """The checkpoint document; ``system``, the benchmark system the field
    was trained for, is recorded when given."""
    feat = None
    if field.featurizer is not None:
        feat = {
            "a": field.featurizer.a,
            "b": field.featurizer.b,
            "num_modes": field.featurizer.num_modes,
            "enabled": True,
        }
    doc = {
        "dim": field.dim,
        "control_dim": field.control_dim,
        "decay": nnet.checkpoint_to_dict(field.decay_spec, field.decay_params, seed),
        "target": nnet.checkpoint_to_dict(field.target_spec, field.target_params, seed),
        "featurizer": feat,
    }
    if system is not None:
        doc["system"] = system
    return doc


def field_from_dict(doc: dict) -> StructuredField:
    """The field of a checkpoint document. A ``domain`` key, which older
    checkpoints hold, is ignored: no command reads it."""
    f_spec, f_params = nnet.checkpoint_from_dict(doc["decay"])
    g_spec, g_params = nnet.checkpoint_from_dict(doc["target"])
    feat = None
    fd = doc.get("featurizer")
    if fd is not None:
        nnet.json_value(fd, "object", "featurizer")
    # a disabled or 0-mode featurizer computes what none does: the target
    # net reads x
    enabled = fd is not None and nnet.json_value(fd.get("enabled", True), "boolean",
                                                  "featurizer enabled")
    if enabled and nnet.json_value(fd["num_modes"], "integer", "num_modes") != 0:
        feat = Featurizer(nnet.json_value(fd["a"], "number", "featurizer a"),
                          nnet.json_value(fd["b"], "number", "featurizer b"), fd["num_modes"])
    return StructuredField(
        dim=nnet.json_value(doc["dim"], "integer", "dim"),
        control_dim=nnet.json_value(doc["control_dim"], "integer", "control_dim"),
        decay_spec=f_spec,
        decay_params=f_params,
        target_spec=g_spec,
        target_params=g_params,
        featurizer=feat,
    )


def save_field(path, field: StructuredField, seed: int | None = None,
               system: str | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(field_to_dict(field, seed, system), fh)


def read_checkpoint(path) -> tuple[StructuredField, str | None]:
    """The field of a checkpoint file and the system it records (None for a
    checkpoint that records none)."""
    with open(path) as fh:
        doc = json.load(fh)
    return field_from_dict(doc), doc.get("system")
