"""Minimal dense-network core: SiLU MLPs with bounded sigmoidal outputs,
hand-rolled reverse-mode gradients, Adam, and a plateau LR scheduler.

Parameters for one MLP live in a single flat float64 vector. Layout, per
layer: weight matrix (rows = output units) flattened row-major, then the
bias vector. Everything here is a pure function of its explicit inputs,
so forward/backward are safe to evaluate concurrently over shared params.
The module keeps no arrays between calls: a caller that repeats wide
cached passes may own `hidden_arrays` and hand them to `forward_cached`,
which writes its hidden layers there instead of allocating them (so
concurrent calls need arrays of their own).

The passes come in two pairs, each pair sharing one routine, so a pair's
members do the same arithmetic on what they share; the forwards take the
weights as the per-layer (W, b) views of `split_params`, and every pass
takes (N, width) row batches, a single input being one row. Same
arithmetic is the same bits only for the same rows in one call: BLAS may
round a row of a product differently by its position in the batch, which
a single-output net's 1-column last product does (see ``_BLOCK_ROWS``).

- forward (`_run_layers`): `forward` keeps no cache, `forward_cached` keeps
  what the reverse pass reads, in fresh or caller-given hidden arrays:
  each layer's input, each hidden layer's SiLU derivative and the output
  sigmoid. The derivative is built once there (`_silu_grad`), so a cache
  replayed several times does not rebuild it.
- reverse (`_reverse_layers`, replaying a `forward_cached` cache), each
  building only the gradient it returns: `backward_from_cache` the
  batch-summed parameter gradient, `input_vjp_from_cache` the per-row
  input gradient.

`AdamState` and `PlateauState` hold only optimizer state; their settings
are the module constants ADAM_* and PLATEAU_*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


class NonFiniteError(RuntimeError):
    """Raised when a numerical routine encounters NaN/inf."""


@dataclass(frozen=True)
class MlpSpec:
    """Topology of one MLP: layer sizes (SiLU hidden layers), output bounds.

    Outputs are mapped through ``lo + (hi - lo) * sigmoid(z)``, so they are
    strictly inside ``(lo, hi)`` for every input; both bounds are finite.
    """

    layer_sizes: tuple[int, ...]
    output_bounds: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2 or any(n < 1 for n in sizes):
            raise ValueError(f"layer_sizes must have >=2 entries, all >=1: {sizes}")
        lo, hi = self.output_bounds
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"output bounds must be finite with lo < hi, got ({lo}, {hi})")

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]


def param_count(spec: MlpSpec) -> int:
    sizes = spec.layer_sizes
    return sum(sizes[l] * sizes[l + 1] + sizes[l + 1] for l in range(len(sizes) - 1))


def init_params(spec: MlpSpec, seed: int) -> np.ndarray:
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    chunks = []
    sizes = spec.layer_sizes
    for l in range(len(sizes) - 1):
        fan_in, fan_out = sizes[l], sizes[l + 1]
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        chunks.append(w.ravel())
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


def _layout(spec: MlpSpec) -> list[tuple[int, int, int, int]]:
    """(w_offset, b_offset, n_out, n_in) per layer; cached per spec."""
    cached = _LAYOUTS.get(spec)
    if cached is None:
        cached = []
        off = 0
        sizes = spec.layer_sizes
        for l in range(len(sizes) - 1):
            n_in, n_out = sizes[l], sizes[l + 1]
            cached.append((off, off + n_out * n_in, n_out, n_in))
            off += n_out * n_in + n_out
        _LAYOUTS[spec] = cached
    return cached


_LAYOUTS: dict[MlpSpec, list] = {}


def split_params(spec: MlpSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (W, b) per layer into the flat vector; W has shape (out, in)."""
    if params.shape != (param_count(spec),):
        raise ValueError(
            f"param vector has length {params.shape}, spec needs {param_count(spec)}"
        )
    return [
        (params[w_off:b_off].reshape(n_out, n_in), params[b_off : b_off + n_out])
        for w_off, b_off, n_out, n_in in _layout(spec)
    ]


# Elementwise kernels on at least this many elements update one array in
# place; smaller ones build fresh arrays, because an in-place ufunc costs more
# per call than a fresh small result. Measured on a 2-core x86-64 VM with
# numpy 2.4: on 20-wide layers in place is faster from about 256 rows on, and
# at 2550 rows, where every fresh temporary is page-faulted anew, the sigmoid
# runs three times faster. Both forms give the same bits.
_INPLACE_MIN = 4096


def _sigmoid(z, out=None):
    """1 / (1 + exp(-z)) for a numpy array or scalar; one new array when
    z is large, none when ``out`` (an array of z's shape) takes the result."""
    # exponent capped below the overflow threshold; deep-negative z then
    # yields ~1e-308 instead of exactly 0, which is what we want anyway
    if out is None and z.size < _INPLACE_MIN:
        return 1.0 / (1.0 + np.exp(np.minimum(-z, 709.0)))
    s = np.negative(z, out=out)
    np.minimum(s, 709.0, out=s)
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    return s


def _silu_grad(z, s, out=None):
    """SiLU'(z) = s + z * s * (1 - s) with s = sigmoid(z); one new array when
    z is large, none when ``out`` takes the result. Both forms give the
    same bits."""
    if out is None and z.size < _INPLACE_MIN:
        return s + z * (s * (1.0 - s))
    p = np.subtract(1.0, s, out=out)
    p *= s
    p *= z
    p += s
    return p


# Output-layer sigmoids are clamped this far from {0,1} so bounded outputs
# stay strictly inside (lo, hi) even when the pre-activation saturates.
_SAT = 1e-13


def _as_batch(x, dim: int, what: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"{what} must have trailing dimension {dim}, got shape {arr.shape}")
    return arr, single


# Value-only passes run at most this many rows at a time, in near-equal
# blocks, so their temporaries stay small however large the batch is. Equal
# blocks never leave a one-row tail: a one-row product takes BLAS's
# matrix-vector path, which rounds differently from the batched rows.
# Blocks keep each row's bits only where BLAS rounds a row independently of
# its position. The 1-column last product (N, w) @ (w, 1) of a single-output
# net does not: on 2,500 sym-hysteresis rows, 50-row chunks of a velocity
# differ from the whole in the last bits (8-, 16- and 64-row chunks do not),
# and blocked 86,751-row forwards of its nets differ from one wide pass.
# Nets with two or more outputs agreed at every size tried.
_BLOCK_ROWS = 1024


def _run_layers(spec: MlpSpec, layers, x2d: np.ndarray, keep: bool, out=None):
    """The layer arithmetic of every forward pass: (outputs, cache) where the
    cache is None unless ``keep`` asks for what the reverse pass reads. With
    ``keep``, ``out`` may give one (z, s, a, p) of (N, width) arrays per
    hidden layer (`hidden_arrays`) for the pre-activation, its sigmoid, the
    SiLU output and its derivative; the cache then holds the given a and p."""
    acts = [x2d]
    derivs = []
    a = x2d
    for l, (w, b) in enumerate(layers[:-1]):
        # the operator forms where no arrays are given: a 1-row call pays
        # for every keyword a ufunc parses
        if out is None:
            z = a @ w.T
            z += b
            s = _sigmoid(z)
            if keep:
                derivs.append(_silu_grad(z, s))
            # SiLU; nothing reads z after it
            a = z * s if z.size < _INPLACE_MIN else np.multiply(z, s, out=z)
        else:
            z, s, a_out, p_out = out[l]
            np.matmul(a, w.T, out=z)
            z += b
            _sigmoid(z, out=s)
            derivs.append(_silu_grad(z, s, out=p_out))
            a = np.multiply(z, s, out=a_out)
        if keep:
            acts.append(a)
    w, b = layers[-1]
    z = a @ w.T
    z += b
    s_out = _sigmoid(z)
    np.maximum(s_out, _SAT, out=s_out)
    np.minimum(s_out, 1.0 - _SAT, out=s_out)
    lo, hi = spec.output_bounds
    y = lo + (hi - lo) * s_out
    return y, ((layers, acts, derivs, s_out) if keep else None)


def forward(spec: MlpSpec, layers, x2d: np.ndarray) -> np.ndarray:
    """Batched value-only forward pass: (N, in_dim) -> (N, out_dim).

    Keeps no cache and runs the rows in blocks of at most ``_BLOCK_ROWS``.
    Up to that many rows it gives the bits ``forward_cached`` gives; past
    it, a single-output net's rows can differ from one wide
    ``forward_cached`` in the last bits (see ``_BLOCK_ROWS``).
    """
    n = x2d.shape[0]
    if n <= _BLOCK_ROWS:
        return _run_layers(spec, layers, x2d, keep=False)[0]
    n_blocks = -(-n // _BLOCK_ROWS)
    y = np.empty((n, spec.out_dim))
    size, extra = divmod(n, n_blocks)
    start = 0
    for i in range(n_blocks):
        stop = start + size + (i < extra)
        y[start:stop] = _run_layers(spec, layers, x2d[start:stop], keep=False)[0]
        start = stop
    return y


def forward_cached(spec: MlpSpec, layers, x2d: np.ndarray, out=None):
    """Batched forward pass returning (outputs, cache) for the reverse
    passes to replay.

    ``x2d`` is (N, in_dim); outputs are (N, out_dim). The cache holds layer
    inputs, each hidden layer's SiLU derivative SiLU'(z), and the
    output-layer sigmoid values. Callers that repeat wide passes may pass
    ``out``, the `hidden_arrays` of N rows, for the hidden layers to be
    written into instead of allocated; the outputs and cache hold the same
    bits.
    """
    return _run_layers(spec, layers, x2d, keep=True, out=out)


def hidden_arrays(spec: MlpSpec, rows: int, scratch: dict):
    """One uninitialized (z, s, a, p) of (rows, width) arrays per hidden
    layer: the ``out`` that `forward_cached` writes its hidden layers into.

    The cache keeps a and p, the layer's SiLU output and derivative. z and
    s, its pre-activation and sigmoid, are scratch that the next layer
    overwrites: one pair per width, taken from ``scratch``, a dict from
    width to pair, or made and added to it. Calls that share one
    ``scratch`` allocate a width's pair once, and their caches still hold
    arrays of their own."""
    arrays = []
    for width in spec.layer_sizes[1:-1]:
        if width not in scratch:
            scratch[width] = (np.empty((rows, width)), np.empty((rows, width)))
        arrays.append((*scratch[width], np.empty((rows, width)), np.empty((rows, width))))
    return arrays


def cache_values(spec: MlpSpec) -> int:
    """Values one row of a `forward_cached` cache holds: every layer's input
    and the output sigmoid, plus each hidden unit's SiLU derivative."""
    sizes = spec.layer_sizes
    return sum(sizes) + sum(sizes[1:-1])


def _reverse_layers(spec: MlpSpec, cache, cotangent2d: np.ndarray, flat=None):
    """The delta chain of every reverse pass of <cotangent, forward(x)>: with
    ``flat``, it writes each layer's batch-summed weight and bias gradients
    there and stops at the first layer's delta; without, it returns the
    per-row input gradient."""
    layers, acts, derivs, s_out = cache
    lo, hi = spec.output_bounds
    delta = cotangent2d * ((hi - lo) * s_out * (1.0 - s_out))
    # the lookup hashes the spec, so the input-only reverse skips it
    layout = None if flat is None else _layout(spec)
    for l in range(len(layers) - 1, -1, -1):
        if flat is not None:
            w_off, b_off, n_out, n_in = layout[l]
            np.matmul(delta.T, acts[l], out=flat[w_off:b_off].reshape(n_out, n_in))
            np.add.reduce(delta, axis=0, out=flat[b_off : b_off + n_out])
        if l == 0:
            break
        delta = delta @ layers[l][0]
        delta *= derivs[l - 1]
    return flat if flat is not None else delta @ layers[0][0]


def backward_from_cache(spec: MlpSpec, cache, cotangent2d: np.ndarray) -> np.ndarray:
    """Flat parameter gradient of <cotangent, forward(x)>, summed over the
    batch; no input gradient is built."""
    _, b_off, n_out, _ = _layout(spec)[-1]
    return _reverse_layers(spec, cache, cotangent2d, np.empty(b_off + n_out))


def input_vjp_from_cache(spec: MlpSpec, cache, cotangent2d: np.ndarray) -> np.ndarray:
    """Per-row input gradient of <cotangent, forward(x)>; no parameter
    gradient is built."""
    return _reverse_layers(spec, cache, cotangent2d)


# --- Adam ------------------------------------------------------------------

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    lr: float


def adam_init(n_params: int, lr: float) -> AdamState:
    if lr <= 0:
        raise ValueError("lr must be positive")
    return AdamState(np.zeros(n_params), np.zeros(n_params), 0, float(lr))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray):
    """One bias-corrected Adam update; returns (new_params, new_state)."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != params.shape:
        raise ValueError(f"grad shape {grad.shape} != params shape {params.shape}")
    if not np.all(np.isfinite(grad)):
        raise NonFiniteError("non-finite gradient passed to adam_step")
    t = state.step_count + 1
    m = ADAM_BETA1 * state.first_moment + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.second_moment + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, replace(state, first_moment=m, second_moment=v, step_count=t)


# --- ReduceLROnPlateau-style scheduler --------------------------------------

# epochs without improvement before lr is cut, the cut factor, the lr floor,
# and the relative loss decrease that counts as an improvement
PLATEAU_PATIENCE = 25
PLATEAU_FACTOR = 0.5
PLATEAU_MIN_LR = 1e-5
PLATEAU_REL_THRESHOLD = 1e-4


@dataclass(frozen=True)
class PlateauState:
    lr: float
    best_loss: float = math.inf
    epochs_since_improve: int = 0


def plateau_step(state: PlateauState, epoch_loss: float) -> PlateauState:
    """Multiply lr by PLATEAU_FACTOR after PLATEAU_PATIENCE epochs without a
    relative improvement above PLATEAU_REL_THRESHOLD, never going below
    PLATEAU_MIN_LR."""
    if not math.isfinite(epoch_loss):
        raise NonFiniteError("non-finite epoch loss passed to plateau_step")
    if epoch_loss < state.best_loss * (1.0 - PLATEAU_REL_THRESHOLD) or not math.isfinite(
        state.best_loss
    ):
        return replace(state, best_loss=min(epoch_loss, state.best_loss), epochs_since_improve=0)
    stagnant = state.epochs_since_improve + 1
    if stagnant >= PLATEAU_PATIENCE:
        return replace(
            state,
            lr=max(state.lr * PLATEAU_FACTOR, PLATEAU_MIN_LR),
            epochs_since_improve=0,
        )
    return replace(state, epochs_since_improve=stagnant)


# --- checkpointing -----------------------------------------------------------

def checkpoint_to_dict(spec: MlpSpec, params: np.ndarray, seed: int | None = None) -> dict:
    return {
        "layer_sizes": list(spec.layer_sizes),
        "activation": "silu",
        "bounds": [spec.output_bounds[0], spec.output_bounds[1]],
        "values": [float(v) for v in params],
        "seed": seed,
    }


# the Python type json.load gives each JSON kind a checkpoint holds
_JSON_KINDS = {"integer": int, "number": (int, float), "boolean": bool, "object": dict}


def json_value(value, kind: str, name: str):
    """``value``, read from a checkpoint, if it is of the JSON ``kind``:
    "integer", "number", "boolean" or "object". A boolean is of no other
    kind, so true is refused, not read as 1, and a float is no integer, so
    it is refused, not truncated."""
    if isinstance(value, bool) != (kind == "boolean") or not isinstance(value, _JSON_KINDS[kind]):
        raise ValueError(f"{name} must be a JSON {kind}, got {value!r}")
    return value


def json_array(value, name: str) -> np.ndarray:
    """``value``, read from a checkpoint, as a float array if it is a JSON
    number or nested lists of them: a boolean or a string in it is
    refused, not read as 1.0 or parsed."""
    items = [value]
    while items:
        item = items.pop()
        if isinstance(item, list):
            items.extend(item)
        else:
            json_value(item, "number", name)
    return np.asarray(value, dtype=float)


def checkpoint_from_dict(doc: dict) -> tuple[MlpSpec, np.ndarray, int | None]:
    json_value(doc, "object", "each net section")
    activation = doc.get("activation", "silu")
    if activation != "silu":
        raise ValueError(f"unsupported activation: {activation!r}")
    bounds = doc["bounds"]
    if not isinstance(bounds, list) or len(bounds) != 2:
        raise ValueError(f"bounds must be two JSON numbers, got {bounds!r}")
    spec = MlpSpec(
        layer_sizes=tuple(json_value(n, "integer", "each layer size") for n in doc["layer_sizes"]),
        output_bounds=tuple(json_value(b, "number", "each bound") for b in bounds),
    )
    params = json_array(doc["values"], "each checkpoint value")
    if params.shape != (param_count(spec),):
        raise ValueError("checkpoint value count does not match layer sizes")
    if not np.isfinite(params).all():
        raise ValueError("checkpoint values must be finite")
    return spec, params, doc.get("seed")
