import json
import tracemalloc

import numpy as np
import pytest

from stabledyn import benchmarks, nnet
from stabledyn.field import (
    Featurizer,
    StructuredField,
    eval_decay,
    eval_target,
    eval_velocity,
    featurize,
    featurize_dx,
    field_from_dict,
    field_to_dict,
    read_checkpoint,
    residual,
    save_field,
    target_cached,
    target_input,
    target_vjp,
    velocity_cached,
    velocity_input_vjp_cached,
    velocity_vjp_cached,
)
from stabledyn.nnet import MlpSpec, init_params, param_count
from util import CHECKPOINT, assert_close, central_diff_grad, make_constant_field, make_field

HYST_FEAT = Featurizer(a=-1.5, b=1.5, num_modes=4)


# The concatenating form of the features and their derivative, kept as the
# bitwise reference for the preallocated one.
def _reference_features(x, cfg, dx=False):
    arr = np.asarray(x, dtype=float)
    col = arr.reshape(-1, 1)
    first = np.ones_like(col) if dx else col
    w = cfg.frequencies()
    rest = -w * np.sin(w * (col - cfg.a)) if dx else np.cos(w * (col - cfg.a))
    first = np.concatenate([first, rest], axis=1)
    return first.reshape(arr.shape + (first.shape[1],))


class TestFeaturize:
    @pytest.mark.parametrize("cfg", [HYST_FEAT, Featurizer(-2.0, 3.0, 7),
                                     Featurizer(-1.5, 1.5, 1),
                                     Featurizer(-1.0, 1.5, 4)])
    @pytest.mark.parametrize("shape", [(), (1,), (50,), (2550,), (3, 4)])
    def test_equals_concatenating_reference(self, cfg, shape):
        x = np.random.default_rng(len(shape)).normal(scale=2.0, size=shape)
        for dx, fn in ((False, featurize), (True, featurize_dx)):
            got, want = fn(x, cfg), _reference_features(x, cfg, dx)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_left_endpoint_all_ones(self):
        out = featurize(-1.5, HYST_FEAT)
        assert_close(out, [-1.5, 1, 1, 1, 1], rtol=1e-12)

    def test_right_endpoint_alternates(self):
        out = featurize(1.5, HYST_FEAT)
        assert_close(out, [1.5, -1, 1, -1, 1], rtol=1e-12, floor=1e-2)

    def test_midpoint(self):
        # frequencies k^2 pi/3 at x=0 give phases pi/2, 2pi, 4.5pi, 8pi
        out = featurize(0.0, HYST_FEAT)
        assert_close(out, [0, 0, 1, 0, 1], rtol=1e-12, floor=1e-2)

    def test_batched_shape(self):
        xs = np.linspace(-2, 2, 9)
        out = featurize(xs, HYST_FEAT)
        assert out.shape == (9, 5)
        assert np.array_equal(out[:, 0], xs)

    def test_derivative_matches_fd(self):
        for x in [-1.2, 0.3, 1.9]:
            d = featurize_dx(x, HYST_FEAT)
            fd = np.array(
                [
                    (featurize(x + 1e-6, HYST_FEAT)[i] - featurize(x - 1e-6, HYST_FEAT)[i]) / 2e-6
                    for i in range(5)
                ]
            )
            assert_close(d, fd, rtol=1e-5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Featurizer(a=1.0, b=1.0)
        with pytest.raises(ValueError):
            Featurizer(a=0.0, b=1.0, num_modes=-1)
        with pytest.raises(ValueError, match="num_modes must be >= 1"):
            Featurizer(-1.5, 1.5, 0)
        for a, b in ((-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(ValueError, match="finite a < b"):
                Featurizer(a, b)


class TestEvaluation:
    def test_constant_field_values(self):
        fld = make_constant_field()
        x, u = np.array([1.5]), np.array([0.0])
        assert_close(eval_decay(fld, x), [-0.5], rtol=1e-12)
        assert_close(eval_target(fld, x, u), [0.5], rtol=1e-12)
        # F = -0.5 * (1.5 - 0.5)
        assert_close(eval_velocity(fld, x, u), [-0.5], rtol=1e-12)
        assert_close(residual(fld, x, u), [1.0], rtol=1e-12)

    def test_decay_strictly_negative_under_fuzz(self):
        fld = make_field(dim=2, control_dim=2, decay_bounds=(-4.0, -0.1), seed=3)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-5, 5, size=(200, 2))
        vals = eval_decay(fld, xs)
        assert np.all(vals < -0.1) and np.all(vals > -4.0)

    def test_target_constant_for_zero_params(self):
        fld = make_constant_field(dim=2, control_dim=2)
        rng = np.random.default_rng(1)
        for _ in range(5):
            g = eval_target(fld, rng.normal(size=2), rng.normal(size=2))
            assert_close(g, [0.5, 0.5], rtol=1e-12)

    def test_velocity_sign_follows_residual(self):
        fld = make_field(dim=2, control_dim=1, seed=5, target_bounds=(0.0, 1.0))
        rng = np.random.default_rng(2)
        xs = rng.uniform(-2, 3, size=(100, 2))
        us = rng.uniform(-1, 1, size=(100, 1))
        v = eval_velocity(fld, xs, us)
        r = residual(fld, xs, us)
        assert np.all(np.sign(v) == -np.sign(r))

    def test_fixed_point_equivalence(self):
        # velocity vanishes exactly where the residual does (decay < 0)
        fld = make_field(dim=1, control_dim=1, seed=7)
        rng = np.random.default_rng(3)
        xs = rng.uniform(-2, 2, size=(200, 1))
        us = rng.uniform(-1, 1, size=(200, 1))
        v = eval_velocity(fld, xs, us)
        r = residual(fld, xs, us)
        assert np.all((np.abs(v) < 1e-14) == (np.abs(r) < 1e-14))

    def test_hysteresis_shape_input_lengths(self):
        # scalar state with 5 features plus one control channel: 6 inputs
        fld = make_field(dim=1, control_dim=1, featurizer=HYST_FEAT, seed=11)
        assert fld.target_spec.in_dim == 6
        out = eval_target(fld, np.array([0.2]), np.array([-0.3]))
        assert out.shape == (1,)

    def test_dim_validation(self):
        decay = MlpSpec((2, 2), output_bounds=(-1.0, 0.0))
        target = MlpSpec((4, 2), output_bounds=(0.0, 1.0))
        with pytest.raises(ValueError):
            StructuredField(
                dim=2,
                control_dim=2,
                decay_spec=MlpSpec((2, 2), output_bounds=(-1.0, 1.0)),  # hi >= 0
                decay_params=np.zeros(6),
                target_spec=target,
                target_params=np.zeros(param_count(target)),
            )
        with pytest.raises(ValueError):
            StructuredField(
                dim=2,
                control_dim=1,  # target expects 4 inputs, 2+1 given
                decay_spec=decay,
                decay_params=np.zeros(param_count(decay)),
                target_spec=target,
                target_params=np.zeros(param_count(target)),
            )


class TestGradients:
    @pytest.mark.parametrize(
        "featurizer,dim,q",
        [(None, 2, 2), (HYST_FEAT, 1, 1), (None, 1, 3)],
    )
    def test_velocity_vjp_matches_fd(self, featurizer, dim, q):
        fld = make_field(dim=dim, control_dim=q, featurizer=featurizer, seed=13)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, size=dim)
            u = rng.uniform(-1, 1, size=q)
            w = rng.normal(size=dim)
            _, cache = velocity_cached(fld, x[None, :], u[None, :])
            pgrad = velocity_vjp_cached(fld, cache, w[None, :])
            xgrad, ugrad = velocity_input_vjp_cached(fld, cache, w[None, :])

            def loss_params(p, fld=fld, x=x, u=u, w=w):
                return float(w @ eval_velocity(fld.with_params(p), x, u))

            full = central_diff_grad(loss_params, fld.params)
            assert_close(pgrad, full, rtol=1e-4, label="params")
            assert_close(
                xgrad[0],
                central_diff_grad(lambda xx: float(w @ eval_velocity(fld, xx, u)), x),
                rtol=1e-4,
                label="x",
            )
            assert_close(
                ugrad[0],
                central_diff_grad(lambda uu: float(w @ eval_velocity(fld, x, uu)), u),
                rtol=1e-4,
                label="u",
            )

    def test_target_vjp_matches_fd(self):
        fld = make_field(dim=1, control_dim=2, featurizer=HYST_FEAT, seed=17)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, size=1)
            u = rng.uniform(-1, 1, size=2)
            w = rng.normal(size=1)
            _, cache = target_cached(fld, x, u)
            xgrad, ugrad = target_vjp(fld, cache, w)
            # the target net's parameter gradient, from the same cached forward
            pgrad = nnet.backward_from_cache(fld.target_spec, cache[2], w[None, :])
            assert_close(
                pgrad,
                central_diff_grad(
                    lambda p: float(
                        w
                        @ eval_target(
                            fld.with_params(np.concatenate([fld.decay_params, p])), x, u
                        )
                    ),
                    fld.target_params,
                ),
                rtol=1e-4,
                label="params",
            )
            assert_close(
                xgrad,
                central_diff_grad(lambda xx: float(w @ eval_target(fld, xx, u)), x),
                rtol=1e-4,
                label="x",
            )
            assert_close(
                ugrad,
                central_diff_grad(lambda uu: float(w @ eval_target(fld, x, uu)), u),
                rtol=1e-4,
                label="u",
            )


class TestSinglePath:
    """eval_velocity agrees bit for bit with the cached forward that the
    training objectives use, and each cached forward's reverses agree."""

    @pytest.mark.parametrize("featurizer,dim,q", [(None, 2, 2), (HYST_FEAT, 1, 1)])
    def test_wrappers_equal_cached_pair(self, featurizer, dim, q):
        fld = make_field(dim=dim, control_dim=q, featurizer=featurizer, seed=23)
        rng = np.random.default_rng(6)
        x = rng.uniform(-1.5, 1.5, size=(7, dim))
        u = rng.uniform(-1, 1, size=(7, q))
        # batched, and single inputs as the squeezed one-row batch
        for xs, us, rows in ((x, u, slice(None)), (x[0], u[0], 0)):
            v, _ = velocity_cached(fld, np.atleast_2d(xs), np.atleast_2d(us))
            got = eval_velocity(fld, xs, us)
            assert got.shape == np.shape(xs)
            assert np.array_equal(got, v[rows])

    @pytest.mark.parametrize("featurizer,dim,q,rows", [(None, 2, 2, 7), (HYST_FEAT, 1, 1, 7),
                                                      (HYST_FEAT, 1, 1, 300)])
    def test_input_only_reverse_matches_fd(self, featurizer, dim, q, rows):
        # 300 rows of a 6-wide layer take the in-place kernels; rows are
        # independent, so central differences of the batch-summed
        # <w, velocity> give every row's gradient
        fld = make_field(dim=dim, control_dim=q, featurizer=featurizer, seed=31)
        rng = np.random.default_rng(8)
        x = rng.uniform(-1.5, 1.5, size=(rows, dim))
        u = rng.uniform(-1, 1, size=(rows, q))
        w = rng.normal(size=(rows, dim))
        _, cache = velocity_cached(fld, x, u)
        xgrad, ugrad = velocity_input_vjp_cached(fld, cache, w)
        assert_close(xgrad, central_diff_grad(
            lambda xx: float(np.sum(w * eval_velocity(fld, xx, u))), x), rtol=1e-4, label="x")
        assert_close(ugrad, central_diff_grad(
            lambda uu: float(np.sum(w * eval_velocity(fld, x, uu))), u), rtol=1e-4, label="u")

    @pytest.mark.parametrize("featurizer,dim,q", [(None, 2, 2), (HYST_FEAT, 1, 1)])
    def test_given_hidden_arrays_give_the_same_bits(self, featurizer, dim, q):
        fld = make_field(dim=dim, control_dim=q, featurizer=featurizer, seed=37,
                         hidden=(5, 4))
        rng = np.random.default_rng(9)
        x = rng.uniform(-1.5, 1.5, size=(900, dim))
        u = rng.uniform(-1, 1, size=(900, q))
        w = rng.normal(size=(900, dim))
        out = (nnet.hidden_arrays(fld.decay_spec, 900, {}),
               nnet.hidden_arrays(fld.target_spec, 900, {}))
        v, cache = velocity_cached(fld, x, u)
        v_out, cache_out = velocity_cached(fld, x, u, out)
        assert np.array_equal(v, v_out)
        # the caches hold the given SiLU derivatives and outputs
        assert cache_out[3][2][0] is out[0][0][3] and cache_out[4][1][-1] is out[1][-1][2]
        assert np.array_equal(velocity_vjp_cached(fld, cache, w),
                              velocity_vjp_cached(fld, cache_out, w))
        for want, got in zip(velocity_input_vjp_cached(fld, cache, w),
                             velocity_input_vjp_cached(fld, cache_out, w)):
            assert np.array_equal(want, got)

    @pytest.mark.parametrize("featurizer,dim,q", [(None, 2, 2), (HYST_FEAT, 1, 1)])
    def test_calls_sharing_scratch_keep_their_own_caches(self, featurizer, dim, q):
        # 5- and 4-wide layers in both nets: two scratch pairs for both calls
        fld = make_field(dim=dim, control_dim=q, featurizer=featurizer, seed=41,
                         hidden=(5, 4))
        rng = np.random.default_rng(12)
        x1, x2 = rng.uniform(-1.5, 1.5, size=(2, 900, dim))
        u = rng.uniform(-1, 1, size=(900, q))
        w = rng.normal(size=(900, dim))
        scratch = {}
        out1, out2 = ((nnet.hidden_arrays(fld.decay_spec, 900, scratch),
                       nnet.hidden_arrays(fld.target_spec, 900, scratch)) for _ in range(2))
        assert sorted(scratch) == [4, 5]
        assert out1[0][0][0] is out2[1][0][0] and out1[1][1][1] is out2[0][1][1]
        _, cache1 = velocity_cached(fld, x1, u, out1)
        velocity_cached(fld, x2, u, out2)
        _, fresh = velocity_cached(fld, x1, u)
        assert np.array_equal(velocity_vjp_cached(fld, cache1, w),
                              velocity_vjp_cached(fld, fresh, w))
        for want, got in zip(velocity_input_vjp_cached(fld, fresh, w),
                             velocity_input_vjp_cached(fld, cache1, w)):
            assert np.array_equal(want, got)

    @pytest.mark.parametrize("featurizer,dim,q", [(None, 2, 2), (HYST_FEAT, 1, 1)])
    def test_value_calls_equal_cached_pair_across_blocks(self, featurizer, dim, q):
        fld = make_field(dim=dim, control_dim=q, featurizer=featurizer, seed=29)
        n = 2 * nnet._BLOCK_ROWS + 1
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.5, 1.5, size=(n, dim))
        u = rng.uniform(-1, 1, size=(n, q))
        v, (_, f, diff, _, _) = velocity_cached(fld, x, u)
        assert np.array_equal(eval_velocity(fld, x, u), v)
        assert np.array_equal(eval_decay(fld, x), f)
        assert np.array_equal(residual(fld, x, u), diff)
        g, _ = nnet.forward_cached(fld.target_spec, fld.target_layers,
                                   target_input(fld, x, u))
        assert np.array_equal(eval_target(fld, x, u), g)


class TestValueOnlyMemory:
    def test_eval_velocity_peak_is_block_bounded(self):
        # two-tanks: 2 states, 2 controls, 20-wide nets with 3 hidden layers
        fld = benchmarks.make_untrained_field("two-tanks", 0)
        n, dim = 100_000, fld.dim
        rng = np.random.default_rng(8)
        x = rng.uniform(0.0, 1.0, size=(n, dim))
        u = rng.uniform(0.0, 1.0, size=(n, fld.control_dim))
        tracemalloc.start()
        try:
            eval_velocity(fld, x, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # rows x (target input + four state-wide arrays), plus a few
        # activation blocks; caching every layer would take rows x width x
        # layers, 150 MB here
        width = max(fld.target_spec.layer_sizes)
        rows_bound = 8 * n * (fld.target_spec.in_dim + 4 * dim)
        block_bound = 8 * nnet._BLOCK_ROWS * width * 6
        assert peak <= rows_bound + block_bound


class TestCheckpoint:
    def test_round_trip(self):
        fld = make_field(dim=1, control_dim=1, featurizer=HYST_FEAT, seed=19,
                         domain=[[-2.0, 2.0]])
        doc = json.loads(json.dumps(field_to_dict(fld, seed=19)))
        fld2 = field_from_dict(doc)
        assert np.array_equal(fld.decay_params, fld2.decay_params)
        assert np.array_equal(fld.target_params, fld2.target_params)
        assert fld2.featurizer == fld.featurizer
        assert np.array_equal(fld.domain, fld2.domain)
        x, u = np.array([0.3]), np.array([0.7])
        assert np.array_equal(eval_velocity(fld, x, u), eval_velocity(fld2, x, u))

    def test_saving_a_loaded_checkpoint_reproduces_its_bytes(self, tmp_path):
        fld = read_checkpoint(CHECKPOINT)[0]
        doc = json.loads(CHECKPOINT.read_text())
        save_field(tmp_path / "field.json", fld, seed=doc["decay"]["seed"])
        assert (tmp_path / "field.json").read_bytes() == CHECKPOINT.read_bytes()

    def test_recorded_system_reads_back(self, tmp_path):
        fld, recorded = read_checkpoint(CHECKPOINT)
        assert recorded is None  # written before systems were recorded
        save_field(tmp_path / "field.json", fld, seed=3, system="sym-hysteresis")
        loaded, system = read_checkpoint(tmp_path / "field.json")
        assert system == "sym-hysteresis"
        assert np.array_equal(loaded.params, fld.params)

    def test_other_activation_refused(self, tmp_path):
        doc = json.loads(CHECKPOINT.read_text())
        doc["target"]["activation"] = "tanh"
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported activation: 'tanh'"):
            read_checkpoint(path)

    @pytest.mark.parametrize("net,key,value", [
        ("decay", "layer_sizes", [1, 20.9, 20.5, True]),
        ("target", "layer_sizes", [6, 20, 20, 1.0]),
        (None, "dim", True),
        (None, "control_dim", 1.0),
        ("featurizer", "num_modes", 4.5),
    ], ids=["decay-sizes", "target-sizes", "dim", "control-dim", "num-modes"])
    def test_non_integer_count_refused(self, tmp_path, net, key, value):
        # MlpSpec would truncate 20.9 to 20 and read true as 1
        doc = json.loads(CHECKPOINT.read_text())
        (doc if net is None else doc[net])[key] = value
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="must be a JSON integer"):
            read_checkpoint(path)

    def test_disabled_featurizer_loads_as_none(self):
        fld = make_field(dim=1, control_dim=1, seed=23)
        doc = json.loads(json.dumps(field_to_dict(fld)))
        doc["featurizer"] = {"a": -1.5, "b": 1.5, "num_modes": 4, "enabled": False}
        fld2 = field_from_dict(doc)
        assert fld2.featurizer is None
        x, u = np.array([0.3]), np.array([0.7])
        assert np.array_equal(eval_velocity(fld, x, u), eval_velocity(fld2, x, u))

    def test_zero_mode_featurizer_loads_as_none(self):
        # a 0-mode featurizer's features are [x], what the target net reads
        # without one
        fld = make_field(dim=1, control_dim=1, seed=24)
        doc = json.loads(json.dumps(field_to_dict(fld)))
        doc["featurizer"] = {"a": -1.5, "b": 1.5, "num_modes": 0, "enabled": True}
        fld2 = field_from_dict(doc)
        assert fld2.featurizer is None
        x, u = np.array([0.3]), np.array([0.7])
        assert np.array_equal(eval_velocity(fld, x, u), eval_velocity(fld2, x, u))
