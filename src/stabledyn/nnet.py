"""Minimal dense-network core: SiLU MLPs with bounded sigmoidal outputs,
hand-rolled reverse-mode gradients, Adam, and a plateau LR scheduler.

Parameters for one MLP live in a single flat float64 vector. Layout, per
layer: weight matrix (rows = output units) flattened row-major, then the
bias vector. Everything here is a pure function of its explicit inputs,
so forward/backward are safe to evaluate concurrently over shared params.
The module keeps no arrays between calls; a `Layers` keeps its biases
broadcast to rows (`_row_biases`), which every call may read and the
first to need more rows replaces. A caller that repeats wide cached
passes may own `hidden_arrays` and hand them to the cached forward, which
writes its hidden layers there instead of allocating them (so concurrent
calls need arrays of their own).

Every pass runs M nets at once on a leading model axis: nets with the
same widths after their input layer, whose weights `stack_params` lays
out as `Layers`. The first layer multiplies each net's own (N, in_m)
input into its slice of one (M, N, width) stack; every later layer is one
stacked product, and the activations and output bounds run once on the
stack. One net is the stack M = 1 (`split_params`, the views of its flat
vector), whose arrays are the (N, width) ones of a plain pass, so a
one-net call pays nothing for the axis. Stacking gives each net the bits
of its own pass. `forward_cached` is `mlp_forward` of one net under its
``spec``, which the kernels do not read: it names the net for callers
that inspect a call by its arguments, as the benchmark's layer hooks do.

The passes come in two pairs, each pair sharing one routine, so a pair's
members do the same arithmetic on what they share; every pass takes
(N, width) row batches per net, a single input being one row. Same
arithmetic is the same bits only for the same rows in one call: BLAS may
round a row of a product differently by its position in the batch, which
a single-output net's 1-column last product does (see ``_BLOCK_ROWS``).

- forward (`_run_layers`): `mlp_values` keeps no cache, `mlp_forward`
  and `forward_cached` keep what the reverse pass reads (`mlp_forward` in
  fresh or caller-given hidden arrays): each net's input, each hidden
  layer's SiLU output and derivative and the output sigmoid. The
  derivative is built once there (`_silu_grad`), so a cache replayed
  several times does not rebuild it.
- reverse (`_reverse_layers`, replaying a cached forward's cache), each
  building only the gradient it returns: `mlp_backward` the batch-summed
  parameter gradient, one net's after another, `mlp_input_vjp` each
  net's per-row input gradient.

`AdamState` and `PlateauState` hold only optimizer state; their settings
are the module constants ADAM_* and PLATEAU_*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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


def _split(spec: MlpSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (W, b) per layer into the flat vector; W has shape (out, in)."""
    if params.shape != (param_count(spec),):
        raise ValueError(
            f"param vector has length {params.shape}, spec needs {param_count(spec)}"
        )
    return [
        (params[w_off:b_off].reshape(n_out, n_in), params[b_off : b_off + n_out])
        for w_off, b_off, n_out, n_in in _layout(spec)
    ]


@dataclass(frozen=True)
class Layers:
    """The weights of M nets on a leading model axis, as every pass takes
    them. The nets share every layer width but the input's.

    ``pairs[l]`` is layer l's (W, b). For one net, whose stack has no
    model axis, these are the (out, in) and (out,) views of its flat vector;
    for M > 1 nets, an (M, out, in) and an (M, 1, out) stack, except that
    the first layer's W is each net's own matrix, as ``first`` holds them
    for any M. ``lo`` and ``span`` are the output bounds lo and hi - lo:
    (M, 1, 1) stacks, or numbers for one net.

    The rest place each parameter's gradient in the flat vector of all M
    nets, one net after another (``size`` values): ``first_grads`` holds
    each net's first weight matrix as (shape, byte offset), and
    ``weight_grads`` (later layers) and ``bias_grads`` (every layer) hold
    each stack as the (shape, byte offset, strides) of an (M, ...) view,
    for one net a view of the layer's own shape.

    ``row_biases`` holds the biases that `_row_biases` last broadcast to
    rows."""

    pairs: tuple
    first: tuple
    lo: np.ndarray | float
    span: np.ndarray | float
    size: int
    first_grads: tuple
    weight_grads: tuple
    bias_grads: tuple
    row_biases: list = field(default_factory=lambda: [None], compare=False, repr=False)


def stack_params(specs, params) -> Layers:
    """The `Layers` of one or two nets ``specs`` with the flat parameter
    vectors ``params``, in that order on the model axis. The nets must have
    the same widths after the input layer. Two nets' stacks are copies, so
    build them once per parameter vector."""
    nets = [_split(spec, p) for spec, p in zip(specs, params, strict=True)]
    per_layer = list(zip(*nets, strict=True))  # per layer, each net's (W, b)
    first = tuple(w for w, _ in per_layer[0])
    if len(nets) == 1:
        # one net keeps its flat vector's views and plain bounds: its stack
        # has no model axis
        pairs = tuple(nets[0])
        lo, hi = specs[0].output_bounds
    else:
        pairs = tuple((np.stack([w for w, _ in layer]) if l else first,
                       np.stack([b for _, b in layer])[:, None, :])
                      for l, layer in enumerate(per_layer))
        lo, hi = np.array([spec.output_bounds for spec in specs], dtype=float).T[:, :, None, None]
    # (w_off, b_off) of every layer of every net in the flat vector of all
    # nets; the gradient of a weight or bias stack is one strided view of
    # it, which steps from the first net's offset to the second's
    offsets, base = [], 0
    for spec in specs:
        offsets.append([(base + w, base + b) for w, b, _, _ in _layout(spec)])
        base += param_count(spec)

    def view(offs, shape):
        inner = tuple(8 * math.prod(shape[i + 1:]) for i in range(len(shape)))
        if len(offs) == 1:
            return shape, 8 * offs[0], inner
        return (len(offs), *shape), 8 * offs[0], (8 * (offs[1] - offs[0]), *inner)

    return Layers(
        pairs=pairs,
        first=first,
        lo=lo,
        span=hi - lo,
        size=base,
        first_grads=tuple((w.shape, 8 * net[0][0]) for w, net in zip(first, offsets)),
        weight_grads=tuple(view([net[l][0] for net in offsets], layer[0][0].shape)
                           for l, layer in enumerate(per_layer) if l),
        bias_grads=tuple(view([net[l][1] for net in offsets], layer[0][1].shape)
                         for l, layer in enumerate(per_layer)),
    )


def split_params(spec: MlpSpec, params: np.ndarray) -> Layers:
    """One net's `Layers`: M = 1, the views of its flat vector."""
    return stack_params((spec,), (params,))


# Elementwise kernels on at least this many elements (of the whole model-axis
# stack) update one array in place; smaller ones build fresh arrays, because
# an in-place ufunc costs more per call than a fresh small result. Measured on
# a 2-core x86-64 VM with numpy 2.4: on 20-wide layers in place is faster from
# about 256 rows on, and at 2550 rows, where every fresh temporary is
# page-faulted anew, the sigmoid runs three times faster. Both forms give the
# same bits.
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


def _run_layers(layers: Layers, xs, keep: bool, out=None):
    """The layer arithmetic of every forward pass, on the stack of M nets' N
    rows: (outputs, cache), the outputs the out_dim-wide stack and the cache
    None unless ``keep`` asks for what the reverse pass reads. ``xs`` holds
    each net's (N, in_m) input. For M > 1 nets the first layer multiplies
    each into its slice of one (M, N, width) pre-activation stack; for one
    net that product is the stack. Every later layer is a single stacked
    product. With ``keep``, ``out`` may give one (s, a, p) of `hidden_arrays`
    per hidden layer: the pre-activation is built in a, and s and p take its
    sigmoid and SiLU derivative before a takes the SiLU output; the cache
    then holds the given a and p."""
    acts = list(xs)
    derivs = []
    pairs = layers.pairs
    last = len(pairs) - 1
    a, s = xs[0], None
    for l, ((w, _), b) in enumerate(zip(pairs, _row_biases(layers, len(a)))):
        # the operator forms where no arrays are given: a 1-row call pays
        # for every keyword a ufunc parses
        given = None if out is None or l == last else out[l]
        if l == 0 and len(xs) > 1:
            z = np.empty((len(xs), len(a), b.shape[-1])) if given is None else given[1]
            for x, w_net, z_net in zip(xs, layers.first, z):
                np.matmul(x, w_net.T, z_net)
        elif given is None:
            z = a @ w.swapaxes(-1, -2)
        else:
            z = np.matmul(a, w.swapaxes(-1, -2), out=given[1])
        z += b
        if l == last:
            break
        if given is None:
            # a wide layer's sigmoid goes into the last one's, which nothing
            # reads any more, so two of them are never held at once
            s = _sigmoid(z, s if z.size >= _INPLACE_MIN and s is not None and
                         s.shape == z.shape else None)
            if keep:
                derivs.append(_silu_grad(z, s))
            # SiLU; nothing reads z after it
            a = z * s if z.size < _INPLACE_MIN else np.multiply(z, s, out=z)
        else:
            s, _, p_out = given
            _sigmoid(z, out=s)
            derivs.append(_silu_grad(z, s, out=p_out))
            a = np.multiply(z, s, out=z)
        if keep:
            acts.append(a)
    s_out = _sigmoid(z)
    np.maximum(s_out, _SAT, out=s_out)
    np.minimum(s_out, 1.0 - _SAT, out=s_out)
    y = layers.lo + layers.span * s_out
    return y, ((layers, acts, derivs, s_out) if keep else None)


def mlp_values(layers: Layers, xs) -> np.ndarray:
    """Batched value-only forward pass of the M nets of ``layers``, each on
    its own (N, in_m) input of ``xs``: the (M, N, out_dim) stack, (N,
    out_dim) for one net.

    Keeps no cache and runs the rows in blocks of at most ``_BLOCK_ROWS``.
    Up to that many rows it gives the bits `mlp_forward` gives;
    past it, a single-output net's rows can differ from one wide cached
    pass in the last bits (see ``_BLOCK_ROWS``).
    """
    n = len(xs[0])
    if n <= _BLOCK_ROWS:
        return _run_layers(layers, xs, keep=False)[0]
    y = np.empty(_stack_shape(layers, n, layers.pairs[-1][1].shape[-1]))
    for rows in row_blocks(n):
        y[..., rows, :] = _run_layers(layers, [x[rows] for x in xs], keep=False)[0]
    return y


def row_blocks(n: int, limit: int = _BLOCK_ROWS) -> list[slice]:
    """The row blocks `mlp_values` runs ``n`` rows in: ceil(n / limit)
    near-equal slices, the longer ones first. A caller that evaluates a
    single-output net one block at a time gets the bits of one
    `mlp_values` call on all n rows. Another ``limit`` splits other units
    the same way (`integrate.rk4_solve_unrolled_grad` splits steps)."""
    n_blocks = max(1, -(-n // limit))
    size, extra = divmod(n, n_blocks)
    starts = [i * size + min(i, extra) for i in range(n_blocks + 1)]
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:])]


def mlp_forward(layers: Layers, xs, out=None):
    """Batched forward pass of the M nets of ``layers`` returning (outputs,
    cache) for the reverse passes to replay.

    ``xs`` holds each net's (N, in_m) input; outputs are stacked as in
    `mlp_values`. The cache holds the nets' inputs, then each hidden layer's
    SiLU output and derivative SiLU'(z), and the output-layer sigmoid
    values. Callers that repeat wide passes may pass ``out``, the
    `hidden_arrays` of N rows, for the hidden layers to be written into
    instead of allocated; the outputs and cache hold the same bits.
    """
    return _run_layers(layers, xs, keep=True, out=out)


def forward_cached(spec: MlpSpec, layers: Layers, x2d: np.ndarray):
    """`mlp_forward` of one net: ``layers`` is its `split_params`,
    ``x2d`` is (N, in_dim) and the outputs are (N, out_dim).

    The field's target-only cached pass runs here, not through
    `mlp_forward`, because the benchmark's layer hooks wrap this name and
    read ``spec`` and ``x2d`` by position; the benchmark's harness tests
    check, through a control run, that it counts rows."""
    return _run_layers(layers, (x2d,), keep=True)


def _stack_shape(layers: Layers, rows: int, width: int) -> tuple[int, ...]:
    """The shape of a width-wide layer of the nets' stack: one net's has no
    model axis."""
    models = len(layers.first)
    return (rows, width) if models == 1 else (models, rows, width)


def _row_biases(layers: Layers, rows: int) -> list:
    """Each layer's bias, as the pre-activation of ``rows`` rows adds it.

    Up to ``_BLOCK_ROWS`` rows these are views of biases broadcast to rows
    in contiguous stacks, which ``layers.row_biases`` keeps, grown to the
    most rows asked for: the add then runs as one loop over the rows,
    where a broadcast bias makes it step row by row, which took 2.6 times
    as long on 50 rows of two 20-wide nets (2-core x86-64 VM, numpy 2.4).
    Past that, the plain biases, so no wide copies are held. Both give the
    same bits."""
    if rows > _BLOCK_ROWS:
        return [b for _, b in layers.pairs]
    kept = layers.row_biases[0]
    if kept is None or kept[0].shape[-2] < rows:
        kept = [np.ascontiguousarray(np.broadcast_to(b, _stack_shape(layers, rows, b.shape[-1])))
                for _, b in layers.pairs]
        layers.row_biases[0] = kept
    return [b[..., :rows, :] for b in kept]


def hidden_arrays(layers: Layers, rows: int, scratch: dict):
    """One uninitialized (s, a, p) of stack arrays (`_stack_shape`) per
    hidden layer: the ``out`` that `mlp_forward` writes its hidden layers
    into.

    The cache keeps a and p, the layer's SiLU output and derivative; a holds
    the pre-activation until the SiLU overwrites it. s, its sigmoid, is
    scratch that the next layer overwrites: one per width, taken from
    ``scratch``, a dict from width to array, or made and added to it. Calls
    that share one ``scratch`` (and stack as many nets) allocate a width's
    scratch once, and their caches still hold arrays of their own."""
    arrays = []
    for _, b in layers.pairs[:-1]:
        width = b.shape[-1]
        shape = _stack_shape(layers, rows, width)
        if width not in scratch:
            scratch[width] = np.empty(shape)
        arrays.append((scratch[width], np.empty(shape), np.empty(shape)))
    return arrays


def cache_values(spec: MlpSpec) -> int:
    """Values one row of a `forward_cached` cache holds: every layer's input
    and the output sigmoid, plus each hidden unit's SiLU derivative."""
    sizes = spec.layer_sizes
    return sum(sizes) + sum(sizes[1:-1])


def _reverse_layers(cache, cotangent: np.ndarray, flat=None):
    """The delta chain of every reverse pass of <cotangent, forward(xs)>, on
    the nets' stack: with ``flat``, it writes each layer's
    batch-summed weight and bias gradients there (each net's parameters in
    turn) and stops at the first layer's delta; without, it returns each
    net's per-row input gradient."""
    layers, acts, derivs, s_out = cache
    delta = cotangent * (layers.span * s_out * (1.0 - s_out))
    if flat is not None:
        w_grads, b_grads = ([np.ndarray(shape, buffer=flat, offset=offset, strides=strides)
                             for shape, offset, strides in views]
                            for views in (layers.weight_grads, layers.bias_grads))
    pairs, models = layers.pairs, len(layers.first)
    for l in range(len(pairs) - 1, 0, -1):
        if flat is not None:
            np.matmul(delta.swapaxes(-1, -2), acts[models + l - 1], out=w_grads[l - 1])
            np.add.reduce(delta, axis=-2, out=b_grads[l])
        delta = delta @ pairs[l][0]
        delta *= derivs[l - 1]
    per_net = (delta,) if models == 1 else delta
    if flat is None:
        return [d @ w for d, w in zip(per_net, layers.first)]
    for d, x, (shape, offset) in zip(per_net, acts, layers.first_grads):
        np.matmul(d.T, x, out=np.ndarray(shape, buffer=flat, offset=offset))
    np.add.reduce(delta, axis=-2, out=b_grads[0])
    return flat


def mlp_backward(cache, cotangent: np.ndarray) -> np.ndarray:
    """Flat parameter gradient of <cotangent, outputs>, summed over the batch,
    over a `mlp_forward` cache and a cotangent stacked as its outputs:
    each net's gradient in turn. No input gradient is built."""
    return _reverse_layers(cache, cotangent, np.empty(cache[0].size))


def mlp_input_vjp(cache, cotangent: np.ndarray) -> list[np.ndarray]:
    """Each net's per-row input gradient of <cotangent, outputs> over a
    `mlp_forward` cache; no parameter gradient is built."""
    return _reverse_layers(cache, cotangent)


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


def checkpoint_from_dict(doc: dict) -> tuple[MlpSpec, np.ndarray]:
    """(spec, params) of a net section. Its seed is read by nothing, but
    must be a JSON integer or null."""
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
    seed = doc.get("seed")
    if seed is not None:
        json_value(seed, "integer", "each net seed")
    return spec, params
