import dataclasses
import json

import numpy as np
import pytest

from stabledyn import nnet
from stabledyn.nnet import (
    AdamState,
    MlpSpec,
    NonFiniteError,
    PlateauState,
    adam_init,
    adam_step,
    backward_from_cache,
    checkpoint_from_dict,
    checkpoint_to_dict,
    forward,
    forward_cached,
    init_params,
    input_vjp_from_cache,
    param_count,
    plateau_step,
    split_params,
)
from util import assert_close, central_diff_grad


def random_spec(rng, max_width=6, max_hidden=2, bounds=None):
    depth = rng.integers(0, max_hidden + 1)
    sizes = [int(rng.integers(1, max_width))]
    for _ in range(depth):
        sizes.append(int(rng.integers(1, max_width)))
    sizes.append(int(rng.integers(1, max_width)))
    if bounds is None:
        lo = float(rng.uniform(-2, 0))
        hi = lo + float(rng.uniform(0.5, 3))
        bounds = (lo, hi)
    return MlpSpec(tuple(sizes), output_bounds=bounds)


class TestSpecAndInit:
    def test_param_layout_length(self):
        spec = MlpSpec((2, 20, 20, 20, 2), output_bounds=(-1, 0))
        assert param_count(spec) == 942
        assert init_params(spec, 0).shape == (942,)

    def test_init_deterministic(self):
        spec = MlpSpec((3, 5, 2))
        a = init_params(spec, 42)
        b = init_params(spec, 42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, init_params(spec, 43))

    def test_minimal_net_biases_zero(self):
        spec = MlpSpec((1, 1))
        p = init_params(spec, 7)
        assert p.shape == (2,)
        assert p[1] == 0.0

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            MlpSpec((3,))
        with pytest.raises(ValueError):
            MlpSpec((3, 0, 1))
        with pytest.raises(ValueError):
            MlpSpec((1, 1), output_bounds=(1.0, 1.0))
        for bounds in ((-np.inf, 0.0), (0.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(ValueError, match="must be finite"):
                MlpSpec((1, 1), output_bounds=bounds)


def _grads(spec, params, x2d, cot2d):
    """(param gradient, input gradient) of <cot2d, forward(x2d)>, through the
    cached forward and the two reverses that replay its cache."""
    _, cache = forward_cached(spec, split_params(spec, params), x2d)
    return backward_from_cache(spec, cache, cot2d), input_vjp_from_cache(spec, cache, cot2d)


class TestForward:
    def test_zero_params_hit_bound_midpoint(self):
        spec = MlpSpec((2, 4, 3), output_bounds=(-1.0, 0.0))
        y = forward(spec, split_params(spec, np.zeros(param_count(spec))), np.array([[0.3, -2.0]]))
        assert_close(y, [[-0.5, -0.5, -0.5]], rtol=1e-12)

    def test_single_layer_sigmoid(self):
        # [1,1] net, w=1, b=0, bounds (0,1): y = sigmoid(x)
        spec = MlpSpec((1, 1), output_bounds=(0.0, 1.0))
        y = forward(spec, split_params(spec, np.array([1.0, 0.0])), np.array([[1.0]]))
        assert_close(y, [[0.7310585786300049]], rtol=1e-12)

    def test_silu_zero_at_zero(self):
        # one hidden unit, all-zero first layer: hidden activation is SiLU(0)=0,
        # so output depends only on the last bias
        spec = MlpSpec((1, 1, 1), output_bounds=(0.0, 1.0))
        params = np.array([5.0, 0.0, 3.0, 0.0])  # w1=5, b1=0 -> z=5x
        y0 = forward(spec, split_params(spec, params), np.array([[0.0]]))
        assert_close(y0, [[0.5]], rtol=1e-12)

    def test_outputs_strictly_inside_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            spec = random_spec(rng)
            params = rng.normal(size=param_count(spec)) * 3.0
            x = rng.uniform(-1e3, 1e3, size=(20, spec.in_dim))
            y = forward(spec, split_params(spec, params), x)
            lo, hi = spec.output_bounds
            assert np.all(y > lo) and np.all(y < hi)
            assert np.all(np.isfinite(y))

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(1)
        spec = random_spec(rng)
        params = rng.normal(size=param_count(spec))
        xs = rng.normal(size=(7, spec.in_dim))
        layers = split_params(spec, params)
        batched = forward(spec, layers, xs)
        rows = np.concatenate([forward(spec, layers, x[None, :]) for x in xs])
        # BLAS may reorder sums between batched and row-at-a-time paths
        assert_close(batched, rows, rtol=1e-13, floor=1e-13)

    @pytest.mark.parametrize("sizes", [(1, 1), (6, 20, 20, 1), (4, 20, 20, 20, 2)])
    def test_cache_values_count_one_cached_row(self, sizes):
        spec = MlpSpec(sizes)
        _, acts, derivs, s_out = forward_cached(
            spec, split_params(spec, init_params(spec, 0)), np.ones((1, spec.in_dim)))[1]
        held = [*acts, *derivs, s_out]
        assert nnet.cache_values(spec) == sum(arr.size for arr in held)

    def test_dimension_mismatch(self):
        # the check every field entry point runs on its inputs
        with pytest.raises(ValueError, match="trailing dimension 2"):
            nnet._as_batch(np.zeros(3), MlpSpec((2, 3)).in_dim, "input")


class TestBackward:
    def test_zero_cotangent(self):
        rng = np.random.default_rng(2)
        spec = random_spec(rng)
        params = rng.normal(size=param_count(spec))
        x = rng.normal(size=(1, spec.in_dim))
        pg, xg = _grads(spec, params, x, np.zeros((1, spec.out_dim)))
        assert not pg.any() and not xg.any()

    def test_constant_map_zero_input_grad(self):
        spec = MlpSpec((2, 3, 2), output_bounds=(0.0, 1.0))
        params = np.zeros(param_count(spec))
        _, xg = _grads(spec, params, np.array([[0.4, -1.0]]), np.ones((1, 2)))
        assert_close(xg, [[0.0, 0.0]], rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        # >=100 random (spec, params, input, cotangent) draws
        rng = np.random.default_rng(3)
        for _ in range(100):
            spec = random_spec(rng)
            params = rng.normal(size=param_count(spec))
            x = rng.normal(size=(1, spec.in_dim))
            cot = rng.normal(size=(1, spec.out_dim))
            pg, xg = _grads(spec, params, x, cot)

            def loss_p(p):
                return float(np.sum(cot * forward(spec, split_params(spec, p), x)))

            def loss_x(xx):
                return float(np.sum(cot * forward(spec, split_params(spec, params), xx)))

            assert_close(pg, central_diff_grad(loss_p, params), rtol=1e-4, label="params")
            assert_close(xg, central_diff_grad(loss_x, x), rtol=1e-4, label="input")

    def test_batched_param_grad_sums_rows(self):
        rng = np.random.default_rng(4)
        spec = random_spec(rng)
        params = rng.normal(size=param_count(spec))
        xs = rng.normal(size=(5, spec.in_dim))
        cots = rng.normal(size=(5, spec.out_dim))
        pg, xg = _grads(spec, params, xs, cots)
        pg_sum = sum(_grads(spec, params, x[None, :], c[None, :])[0] for x, c in zip(xs, cots))
        assert_close(pg, pg_sum, rtol=1e-12)
        assert xg.shape == (5, spec.in_dim)


# The expression form of the forward and reverse passes before the in-place
# rewrite, kept as the bitwise reference for the kernels.
def _reference_sigmoid(z):
    return 1.0 / (1.0 + np.exp(np.minimum(-z, 709.0)))


def _reference_forward(spec, params, x2d):
    layers = split_params(spec, params)
    acts, hidden, a = [x2d], [], x2d
    for w, b in layers[:-1]:
        z = a @ w.T + b
        s = _reference_sigmoid(z)
        a = z * s
        hidden.append((z, s))
        acts.append(a)
    w, b = layers[-1]
    z = a @ w.T + b
    s_out = np.clip(_reference_sigmoid(z), 1e-13, 1.0 - 1e-13)
    lo, hi = spec.output_bounds
    return lo + (hi - lo) * s_out, (layers, acts, hidden, s_out)


def _reference_backward(spec, cache, cotangent2d):
    layers, acts, hidden, s_out = cache
    lo, hi = spec.output_bounds
    delta = cotangent2d * ((hi - lo) * s_out * (1.0 - s_out))
    grads = []
    for l in range(len(layers) - 1, -1, -1):
        w, _ = layers[l]
        grads[:0] = [(delta.T @ acts[l]).ravel(), delta.sum(axis=0)]
        da = delta @ w
        if l > 0:
            z, s = hidden[l - 1]
            delta = da * (s + z * (s * (1.0 - s)))
    return np.concatenate(grads), da


B = nnet._BLOCK_ROWS
TANKS_TARGET = MlpSpec((4, 20, 20, 20, 2), output_bounds=(0.0, 1.0))
HYST_TARGET = MlpSpec((6, 20, 20, 1), output_bounds=(-2.0, 2.0))


class TestKernels:
    """The value-only forward, the cached forward and the reverse pass give
    the same bits as the expression-form reference."""

    @pytest.mark.parametrize("n", [1, 2, 7, B - 1, B, B + 1, 2 * B + 1, 86_751])
    def test_forward_equals_cached_forward(self, n):
        rng = np.random.default_rng(n)
        params = init_params(TANKS_TARGET, 5) * 2.0
        layers = split_params(TANKS_TARGET, params)
        x = rng.normal(scale=2.0, size=(n, TANKS_TARGET.in_dim))
        y, _ = forward_cached(TANKS_TARGET, layers, x)
        assert np.array_equal(forward(TANKS_TARGET, layers, x), y)
        assert np.array_equal(y, _reference_forward(TANKS_TARGET, params, x)[0])

    @pytest.mark.parametrize("n", [1, 2, B, B + 1, 2 * B + 1, 5 * B - 3])
    def test_blocks_are_near_equal(self, n, monkeypatch):
        sizes = []
        run = nnet._run_layers

        def recorded(spec, layers, x2d, keep):
            sizes.append(x2d.shape[0])
            return run(spec, layers, x2d, keep)

        monkeypatch.setattr(nnet, "_run_layers", recorded)
        forward(TANKS_TARGET, split_params(TANKS_TARGET, init_params(TANKS_TARGET, 0)),
                np.zeros((n, 4)))
        assert sum(sizes) == n and len(sizes) == -(-n // B)
        assert max(sizes) <= B and max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 2 or n == 1

    @pytest.mark.parametrize("n", [1, 3, 50, 2550])
    def test_backward_equals_reference(self, n):
        """Both reverse entry points against the reference: the parameter
        reverse against its parameter gradient, the input-only reverse
        against its input gradient."""
        rng = np.random.default_rng(10 + n)
        for spec in (TANKS_TARGET, HYST_TARGET, random_spec(rng),
                     random_spec(rng, max_hidden=3)):
            params = rng.normal(size=param_count(spec))
            x = rng.normal(scale=3.0, size=(n, spec.in_dim))
            cot = rng.normal(size=(n, spec.out_dim))
            y, cache = forward_cached(spec, split_params(spec, params), x)
            y_ref, ref_cache = _reference_forward(spec, params, x)
            assert np.array_equal(y, y_ref)
            want_p, want_x = _reference_backward(spec, ref_cache, cot)
            assert np.array_equal(backward_from_cache(spec, cache, cot), want_p)
            assert np.array_equal(input_vjp_from_cache(spec, cache, cot), want_x)

    def test_sigmoid_matches_reference_and_takes_scalars(self):
        small = np.array([-1e4, -745.0, -709.5, -30.0, -1.0, 0.0, 1e-9, 2.5, 40.0, 1e4])
        large = np.resize(small, (nnet._INPLACE_MIN // 10 + 1, 10))
        for z in (small, large):
            z_before = z.copy()
            assert np.array_equal(nnet._sigmoid(z), _reference_sigmoid(z))
            assert np.array_equal(z, z_before)
        for scalar in (np.float64(0.0), np.float64(-3.0), np.array(2.0)):
            got = nnet._sigmoid(scalar)
            assert np.ndim(got) == 0 and got == _reference_sigmoid(scalar)
        assert nnet._sigmoid(np.float64(0.0)) == 0.5


class TestAdam:
    def test_zero_grad_keeps_params(self):
        state = adam_init(3, lr=0.1)
        p = np.array([1.0, -2.0, 0.5])
        p2, s2 = adam_step(state, p, np.zeros(3))
        assert np.array_equal(p, p2)
        assert s2.step_count == 1

    def test_first_step_unit_grad(self):
        # bias correction makes m_hat/sqrt(v_hat) = 1 on the first step
        state = adam_init(1, lr=0.1)
        p2, _ = adam_step(state, np.array([0.0]), np.array([1.0]))
        assert_close(p2, [-0.1], rtol=1e-7)

    def test_deterministic(self):
        state = adam_init(2, lr=0.05)
        p = np.array([0.3, -0.7])
        g = np.array([0.1, 0.2])
        out1 = adam_step(state, p, g)
        out2 = adam_step(state, p, g)
        assert np.array_equal(out1[0], out2[0])
        assert np.array_equal(out1[1].first_moment, out2[1].first_moment)

    def test_rejects_non_finite(self):
        state = adam_init(1, lr=0.1)
        with pytest.raises(NonFiniteError):
            adam_step(state, np.array([0.0]), np.array([np.nan]))

    def test_first_two_updates_are_the_closed_form(self):
        # bias-corrected Adam at beta1 0.9, beta2 0.999, eps 1e-8, written out
        lr = 0.05
        p0 = np.array([0.3, -0.7, 2.0, 0.0])
        g1 = np.array([0.1, -2.0, 1e-3, 7.5])
        g2 = np.array([-0.4, 0.5, 3.0, 1e-6])
        m1 = (1.0 - 0.9) * g1
        v1 = (1.0 - 0.999) * g1 * g1
        p1 = p0 - lr * (m1 / (1.0 - 0.9)) / (np.sqrt(v1 / (1.0 - 0.999)) + 1e-8)
        m2 = 0.9 * m1 + (1.0 - 0.9) * g2
        v2 = 0.999 * v1 + (1.0 - 0.999) * g2 * g2
        p2 = p1 - lr * (m2 / (1.0 - 0.9**2)) / (np.sqrt(v2 / (1.0 - 0.999**2)) + 1e-8)

        got1, state = adam_step(adam_init(4, lr), p0, g1)
        got2, state = adam_step(state, got1, g2)
        assert np.array_equal(got1, p1) and np.array_equal(got2, p2)
        assert np.array_equal(state.first_moment, m2)
        assert np.array_equal(state.second_moment, v2)
        assert state.step_count == 2 and state.lr == lr


class TestPlateau:
    def test_decreasing_losses_keep_lr(self):
        st = PlateauState(lr=0.01)
        loss = 1.0
        for _ in range(60):
            st = plateau_step(st, loss)
            loss *= 0.9
        assert st.lr == 0.01

    def test_constant_loss_halves_once(self):
        st = plateau_step(PlateauState(lr=0.01), 1.0)  # sets the best loss
        for _ in range(24):
            st = plateau_step(st, 1.0)
        assert st.lr == 0.01 and st.epochs_since_improve == 24
        st = plateau_step(st, 1.0)  # the 25th stagnant epoch
        assert st.lr == 0.005
        assert st.epochs_since_improve == 0

    def test_min_lr_floor(self):
        # 3e-5 halves to 1.5e-5, then stops at the 1e-5 floor
        st = PlateauState(lr=3e-5)
        lrs = []
        for _ in range(1 + 3 * 25):
            st = plateau_step(st, 1.0)
            lrs.append(st.lr)
        assert lrs[24:26] == [3e-5, 1.5e-5] and lrs[49:51] == [1.5e-5, 1e-5]
        assert lrs[-1] == 1e-5 and min(lrs) == 1e-5


def test_optimizer_states_hold_only_state():
    assert [f.name for f in dataclasses.fields(AdamState)] == [
        "first_moment", "second_moment", "step_count", "lr"]
    assert [f.name for f in dataclasses.fields(PlateauState)] == [
        "lr", "best_loss", "epochs_since_improve"]


class TestCheckpoint:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(5)
        spec = MlpSpec((2, 7, 3), output_bounds=(-4.0, -0.1))
        params = rng.normal(size=param_count(spec)) * np.pi
        doc = json.loads(json.dumps(checkpoint_to_dict(spec, params, seed=9)))
        spec2, params2, seed = checkpoint_from_dict(doc)
        assert spec2 == spec
        assert seed == 9
        assert np.array_equal(params, params2)

    def test_value_count_checked(self):
        doc = checkpoint_to_dict(MlpSpec((1, 1)), np.zeros(2))
        doc["values"] = [0.0]
        with pytest.raises(ValueError):
            checkpoint_from_dict(doc)
