import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stabledyn import field
from stabledyn.benchmarks import (
    BUDWORM,
    SYM_HYSTERESIS,
    SYSTEM_DIMS,
    SYSTEMS,
    TOGGLE_SWITCH,
    TWO_TANKS,
    DataProtocol,
    UndefinedSplit,
    _git_blob_sha1,
    _logistic,
    analytic_split,
    default_model,
    default_control_recipe,
    default_params,
    default_protocol,
    evaluate_trace,
    gen_dataset,
    load_dataset,
    make_untrained_field,
    rhs_fn,
    sample_targets,
    save_dataset,
    settle_grid,
    split_target_fn,
    system_magnitude,
    system_rhs,
    transient_time,
)
from stabledyn.control import ControlTrace, control_schedule, feedback_simulate
from stabledyn.integrate import TimeGrid, Trajectory, rk4_solve, rk4_solve_batch
from util import CHECKPOINT, assert_close


class TestSystemRhs:
    def test_hysteresis_fixed_point(self):
        assert system_rhs(SYM_HYSTERESIS, [1.0], [0.0])[0] == 0.0

    def test_tanks_balance_point(self):
        # x=(1,1), (p,v)=(0.5,0.5): gates at 0.5 balance inflow and outflow
        dx = system_rhs(TWO_TANKS, [1.0, 1.0], [0.5, 0.5])
        assert_close(dx, [0.0, 0.0], rtol=1e-14, floor=1e-14)

    def test_toggle_at_origin(self):
        dx = system_rhs(TOGGLE_SWITCH, [0.0, 0.0], [2.0, 2.0, 2.0, 2.0])
        assert_close(dx, [2.0, 2.0], rtol=1e-14)

    def test_budworm_extinction(self):
        for kappa in (4.45, 8.0, 11.99):
            assert system_rhs(BUDWORM, [0.0], [kappa])[0] == 0.0

    def test_batched_matches_single(self):
        rng = np.random.default_rng(0)
        for system in SYSTEMS:
            d, q = SYSTEM_DIMS[system]
            xs = rng.uniform(0.1, 1.0, size=(6, d))
            us = rng.uniform(0.2, 1.0, size=(6, q))
            batch = system_rhs(system, xs, us)
            for i in range(6):
                assert_close(batch[i], system_rhs(system, xs[i], us[i]),
                             rtol=1e-14, floor=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            system_rhs(TWO_TANKS, [1.0], [0.5, 0.5])

    def test_unknown_system(self):
        for fn in (system_rhs, analytic_split):
            with pytest.raises(ValueError, match="unknown system 'pendulum'"):
                fn("pendulum", [1.0], [0.5])


def masked_logistic(z):
    """The boolean-mask form that `_logistic` replaced."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestLogistic:
    def test_same_bits_as_masked_form(self):
        rng = np.random.default_rng(3)
        z = np.concatenate([
            [0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-320, -1e-320],
            rng.normal(size=5000) * 40.0,
            rng.normal(size=5000),
        ])
        assert np.array_equal(_logistic(z).view(np.int64), masked_logistic(z).view(np.int64))

    def test_saturates_without_overflow(self):
        # exp(-800) underflows to 0, which is the right answer
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            assert _logistic(np.array([800.0, -800.0])).tolist() == [1.0, 0.0]


class TestDatasetHash:
    def test_git_blob_sha1_matches_git(self, tmp_path):
        # `printf 'hello\n' | git hash-object --stdin`
        (tmp_path / "hello").write_bytes(b"hello\n")
        with open(tmp_path / "hello", "rb") as fh:
            assert _git_blob_sha1(fh) == "ce013625030ba8dba906f756967f9e9ca394464a"


class TestAnalyticSplit:
    def test_hysteresis_hand_values(self):
        f, g = analytic_split(SYM_HYSTERESIS, [2.0], [0.0])
        assert_close(f, [-4.0], rtol=1e-14)
        assert_close(g, [0.5], rtol=1e-14)
        assert_close(f * (2.0 - g), [-6.0], rtol=1e-14)

    def test_budworm_hand_values(self):
        f, g = analytic_split(BUDWORM, [1.0], [7.0])
        assert_close(f, [-0.5], rtol=1e-14)
        assert_close(g, [0.96], rtol=1e-14)
        assert_close(f * (1.0 - g), system_rhs(BUDWORM, [1.0], [7.0]), rtol=1e-12)

    def test_identity_fuzzed(self):
        rng = np.random.default_rng(1)
        n = 2000
        cases = {
            SYM_HYSTERESIS: (rng.uniform(0.05, 2, (n, 1)) * rng.choice([-1, 1], (n, 1)),
                             rng.uniform(-1, 1, (n, 1))),
            BUDWORM: (rng.uniform(0.05, 10, (n, 1)), rng.uniform(4.45, 11.99, (n, 1))),
            TOGGLE_SWITCH: (rng.uniform(0, 6, (n, 2)), rng.uniform(0.1, 5, (n, 4))),
        }
        for system, (xs, us) in cases.items():
            f, g = analytic_split(system, xs, us)
            rhs = system_rhs(system, xs, us)
            assert np.max(np.abs(f * (xs - g) - rhs)) <= 1e-12

    def test_undefined_cases(self):
        with pytest.raises(UndefinedSplit):
            analytic_split(TWO_TANKS, [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(UndefinedSplit):
            analytic_split(SYM_HYSTERESIS, [0.0], [0.1])
        with pytest.raises(UndefinedSplit):
            analytic_split(BUDWORM, [-1.0], [5.0])


class TestProtocols:
    def test_grid_sizes(self):
        # one trajectory per (ic, control) pair
        def n_trajectories(proto):
            return len(proto.pairs()[0])

        assert n_trajectories(default_protocol(TWO_TANKS)) == 21 * 81 == 1701
        assert n_trajectories(default_protocol(SYM_HYSTERESIS)) == 51 * 51 == 2601
        assert n_trajectories(default_protocol(BUDWORM)) == 2601
        assert n_trajectories(default_protocol(TOGGLE_SWITCH)) == 81 * 81
        assert n_trajectories(default_protocol(TOGGLE_SWITCH, paper_scale=True)) == 81 * 625

    @pytest.mark.parametrize("system,rk4_steps", [(TWO_TANKS, 400), (SYM_HYSTERESIS, 50),
                                                  (BUDWORM, 100), (TOGGLE_SWITCH, 400)])
    def test_rk4_step_does_not_grow_with_fewer_samples(self, system, rk4_steps):
        # the default 51 samples hit the system's step count exactly; other
        # counts take the fewest whole steps per sample interval that reach it
        for samples in (2, 3, 6, 51, 52, 401, 402):
            grid, stride = default_protocol(system, samples_per_traj=samples).sampling()
            assert grid.n_steps == (samples - 1) * stride
            assert rk4_steps <= grid.n_steps < rk4_steps + samples - 1
        assert (50 * default_protocol(system).sampling()[1]) == rk4_steps

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_other_horizons_keep_the_rk4_step(self, system):
        # a longer or shorter horizon takes the fewest whole steps per sample
        # interval whose step is no longer than the default horizon's
        proto = default_protocol(system)
        default_grid, default_stride = proto.sampling()
        assert proto.sampling(proto.horizon) == (default_grid, default_stride)
        for scale in (1e-3, 0.1, 0.3, 0.7, 0.99, 1.01, 1.5, 3.0, 10.0, 100.0, 1e4):
            grid, stride = proto.sampling(scale * proto.horizon)
            assert grid.t0 == 0.0 and grid.t1 == scale * proto.horizon
            assert grid.n_steps == 50 * stride
            assert grid.h <= default_grid.h
            if stride > 1:
                assert grid.t1 / (50 * (stride - 1)) > default_grid.h

    def test_horizon_past_float_steps_is_the_grids_refusal(self):
        # 1e306 takes more RK4 steps than a float can hold
        with pytest.raises(ValueError, match="float range"):
            default_protocol(SYM_HYSTERESIS).sampling(1e306)

    def test_one_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            default_protocol(BUDWORM, samples_per_traj=1)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            DataProtocol(np.zeros((0, 1)), np.zeros((1, 1)), horizon=1.0)


class TestGenDataset:
    def test_hysteresis_counts_and_order(self):
        proto = default_protocol(SYM_HYSTERESIS, samples_per_traj=5)
        ds = gen_dataset(SYM_HYSTERESIS, proto)
        assert len(ds.trajectories) == 2601
        # ic-major lexicographic: first 51 share the first initial condition
        assert all(t.states[0, 0] == -2.0 for t in ds.trajectories[:51])
        assert ds.trajectories[0].control[0] == -1.0
        assert ds.trajectories[1].control[0] == pytest.approx(-0.96)
        assert [t.traj_id for t in ds.trajectories[:3]] == [0, 1, 2]

    def test_trajectories_match_direct_solve(self):
        proto = DataProtocol([[1.5]], [[0.2]], horizon=1.0, samples_per_traj=11, rk4_steps=30)
        ds = gen_dataset(SYM_HYSTERESIS, proto)
        grid = TimeGrid(0.0, 1.0, 30)
        direct = rk4_solve(lambda x, u: system_rhs(SYM_HYSTERESIS, x, u),
                           [1.5], [0.2], grid)
        assert_close(ds.trajectories[0].states[:, 0], direct.states[::3, 0],
                     rtol=1e-13, floor=1e-13)

    def test_tank_levels_stay_physical(self):
        # gates activate near 1: levels remain in [0, 1.2] over long horizons
        proto = DataProtocol(
            [[0.0, 0.0], [1.0, 1.0], [0.5, 1.0]],
            [[0.9, 0.9], [0.9, 0.1], [0.5, 0.5]],
            horizon=1000.0,
            samples_per_traj=51,
            rk4_steps=4000,
        )
        ds = gen_dataset(TWO_TANKS, proto)
        for traj in ds.trajectories:
            assert np.all(traj.states >= 0.0) and np.all(traj.states <= 1.2)

    def test_toggle_transient_truncation(self):
        proto = DataProtocol(
            [[0.0, 0.0], [6.0, 6.0]],
            [[5.0, 5.0, 2.5, 2.5], [0.1, 0.1, 0.1, 0.1]],
            horizon=100.0,
            samples_per_traj=21,
            rk4_steps=160,
            transient_truncate=True,
        )
        ds = gen_dataset(TOGGLE_SWITCH, proto)
        assert len(ds.trajectories) == 4
        for traj in ds.trajectories:
            assert traj.times[-1] < 100.0  # all of these settle well before t=100
            assert len(traj.times) == 21


class TestTransientTime:
    def test_constant_trajectory(self):
        traj = Trajectory(np.linspace(0, 10, 11), np.ones((11, 1)), np.zeros(1))
        t_star, converged = transient_time(traj)
        assert converged and t_star == 0.0

    def test_exponential_decay(self):
        t = np.linspace(0, 15, 1501)
        traj = Trajectory(t, np.exp(-t), np.zeros(1))
        t_star, converged = transient_time(traj)
        assert converged
        assert abs(t_star - np.log(1e3)) <= t[1] - t[0] + 1e-9

    def test_pure_noise_flagged(self):
        rng = np.random.default_rng(3)
        traj = Trajectory(np.arange(100.0), rng.normal(size=(100, 1)), np.zeros(1))
        t_star, converged = transient_time(traj)
        assert not converged and t_star == 99.0


class TestDatasetIO:
    def test_save_load_round_trip(self, tmp_path):
        proto = DataProtocol(np.linspace(-2, 2, 3)[:, None], [[0.1], [0.3]],
                             horizon=0.25, samples_per_traj=6)
        ds = gen_dataset(SYM_HYSTERESIS, proto)
        manifest = save_dataset(tmp_path / "demo", ds, proto, 5)
        assert manifest["n_trajectories"] == 6
        assert manifest["seed"] == 5
        assert len(manifest["content_hash"]) == 40
        back = load_dataset(tmp_path / "demo")
        assert back.system == SYM_HYSTERESIS
        assert len(back.trajectories) == 6
        for a, b in zip(ds.trajectories, back.trajectories):
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.control, b.control)


    @pytest.mark.parametrize("system", [TWO_TANKS, BUDWORM])
    def test_neither_save_nor_load_holds_the_whole_csv(self, tmp_path, system):
        # the CSV is hashed in chunks and parsed from the open file; holding
        # its bytes beside the parsed table took 2.07 to 2.32 times its size
        proto = default_protocol(system)
        ds = gen_dataset(system, proto)
        prefix = tmp_path / "data"
        peaks = []
        for run in (lambda: save_dataset(prefix, ds, proto, None), lambda: load_dataset(prefix)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        size = prefix.with_suffix(".csv").stat().st_size
        assert peaks[0] < size
        assert peaks[1] < 1.5 * size


class TestModelRecipes:
    def test_paper_architectures(self):
        tanks = default_model(TWO_TANKS)
        assert tanks.decay_spec.layer_sizes == (2, 20, 20, 20, 2)
        assert tanks.target_spec.layer_sizes == (4, 20, 20, 20, 2)
        assert tanks.decay_spec.output_bounds == (-1.0, 0.0)
        assert tanks.target_spec.output_bounds == (0.0, 1.0)
        hyst = default_model(SYM_HYSTERESIS)
        assert hyst.decay_spec.layer_sizes == (1, 20, 20, 1)
        assert hyst.target_spec.layer_sizes == (6, 20, 20, 1)
        assert hyst.featurizer is not None and hyst.featurizer.a == -1.5
        toggle = default_model(TOGGLE_SWITCH)
        assert toggle.target_spec.layer_sizes == (6, 20, 20, 20, 2)

    def test_untrained_field_evaluates(self):
        for system in SYSTEMS:
            fld = make_untrained_field(system, seed=0)
            d, q = SYSTEM_DIMS[system]
            v = fld and np.asarray(
                system_rhs(system, np.full(d, 0.5), np.full(q, 0.5))
            )
            assert v.shape == (d,)
            from stabledyn.field import eval_velocity

            assert eval_velocity(fld, np.full(d, 0.5), np.full(q, 0.5)).shape == (d,)


class TestEvaluateTrace:
    @staticmethod
    def _trace(records_per_target, refs=None):
        # one trial of a scalar system, at x = node
        index = np.repeat(np.arange(len(records_per_target)), records_per_target)
        states = np.arange(index.size, dtype=float)[:, None, None]
        if refs is None:
            refs = np.zeros((len(records_per_target), 1, 1))
        return ControlTrace(states[:, 0, 0], index, states, states, refs)

    @pytest.mark.parametrize("n", [5, 6, 10, 11, 23])
    def test_window_is_the_last_fifth(self, n):
        # nodes 0..n-1 with x = node; the window starts at ceil(0.8 n)
        start = int(np.ceil(0.8 * n))
        expected = np.sqrt(np.mean(np.arange(start, n, dtype=float) ** 2)) / 2.0
        (got,) = evaluate_trace(self._trace([n]), 2.0)[0]
        assert got[0] == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_short_span_keeps_its_last_node(self, n):
        (got,) = evaluate_trace(self._trace([n]), 2.0)[0]
        assert got[0] == (n - 1) / 2.0

    def test_target_without_records_is_skipped(self):
        trace = self._trace([5], refs=np.array([[[0.0]], [[1.0]]]))
        assert evaluate_trace(trace, 1.0).shape == (1, 1, 1)


class TestSampleTargets:
    @pytest.mark.parametrize("system", [TWO_TANKS, TOGGLE_SWITCH])
    def test_batched_settle_is_per_target_settles(self, system):
        # reference: each target drawn and settled on its own, in stream order
        rng = np.random.default_rng([3, 7, 1])
        expected = []
        for _ in range(2):
            if system == TWO_TANKS:
                x0, u, horizon = np.full(2, 0.5), rng.uniform(0.1, 0.9, size=2), 1000.0
            else:
                x0, u, horizon = rng.uniform(0.0, 6.0, size=2), rng.uniform(0.0, 5.0, size=4), 100.0
            states = rk4_solve_batch(lambda x, uu: system_rhs(system, x, uu), x0[None, :],
                                     u[None, :], TimeGrid(0.0, horizon, int(horizon / 0.25)))
            expected.append(states[0, -1])
        assert np.array_equal(sample_targets(system, 2, [[3, 7, 1]]), np.array([expected]))

    def test_settle_grid_is_the_end_state_systems_own(self):
        # the grid the reference above settles on, 0.25 per RK4 step
        for system, horizon in ((TWO_TANKS, 1000.0), (TOGGLE_SWITCH, 100.0)):
            grid = settle_grid(system)
            assert (grid.t0, grid.t1, grid.n_steps) == (0.0, horizon, int(horizon / 0.25))
        assert settle_grid(SYM_HYSTERESIS) is None and settle_grid(BUDWORM) is None

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_seeds_in_one_call_are_per_seed_calls(self, system):
        seeds = [[0, 7, 0], [0, 7, 1], [5, 7, 2]]
        batch = sample_targets(system, 3, seeds)
        assert batch.shape == (3, 3, SYSTEM_DIMS[system][0])
        for seed, targets in zip(seeds, batch):
            assert np.array_equal(targets, sample_targets(system, 3, [seed])[0])


class TestControlTrials:
    @pytest.mark.parametrize("system,t_per_target", [(SYM_HYSTERESIS, 2.0), (BUDWORM, 5.0)],
                             ids=["field", "oracle-budworm"])
    def test_each_trial_matches_its_solo_run(self, system, t_per_target):
        # batched target-net rows may round apart from 1-row calls in the
        # last bit, so a trial in a batch stays within 1e-9 of its solo run
        if system == SYM_HYSTERESIS:
            target_map = field.read_checkpoint(CHECKPOINT)[0]
        else:
            target_map = split_target_fn(system)
        recipe = replace(default_control_recipe(system), t_per_target=t_per_target)
        targets = sample_targets(system, 3, [[0, 7, i] for i in range(3)])
        seeds = [[0, 11, i] for i in range(3)]
        magnitude = system_magnitude(system)
        starts, grid = control_schedule(recipe, 3)
        batch = feedback_simulate(rhs_fn(system), target_map, recipe, targets, seeds, starts,
                                  grid=grid, record_every=10)
        assert batch.states.shape[1] == 3
        scores = evaluate_trace(batch, magnitude)
        for i in range(3):
            solo = feedback_simulate(rhs_fn(system), target_map, recipe, targets[i:i + 1],
                                     seeds[i:i + 1], starts, grid=grid, record_every=10)
            assert np.array_equal(batch.times, solo.times)
            assert np.array_equal(batch.target_index, solo.target_index)
            assert np.max(np.abs(batch.states[:, i] - solo.states[:, 0])) <= 1e-9
            assert np.max(np.abs(batch.controls[:, i] - solo.controls[:, 0])) <= 1e-9
            assert np.max(np.abs(scores[i] - evaluate_trace(solo, magnitude)[0])) <= 1e-9
