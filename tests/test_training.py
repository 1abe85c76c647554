import weakref

import numpy as np
import pytest

from stabledyn import benchmarks, training
from stabledyn.benchmarks import (BUDWORM, TOGGLE_SWITCH, TWO_TANKS, DataProtocol,
                                  default_protocol, gen_dataset, make_untrained_field)
from stabledyn.field import Featurizer, eval_velocity, velocity_cached, velocity_vjp_cached
from stabledyn.integrate import (DatasetError, TimeGrid, Trajectory, finite_diff,
                                 read_trajectories_csv, rk4_solve_batch, write_trajectories_csv)
from stabledyn.training import (
    GRAD_MATCHING,
    TRAJ_MATCHING,
    CvReport,
    GradMatchingObjective,
    TrainConfig,
    TrajMatchingObjective,
    cross_validate,
    kfold_split,
    make_objective,
    train,
)
from util import assert_close, central_diff_grad, make_field


def field_generated_trajectories(fld, n_traj=6, n_samples=9, horizon=0.5, seed=0):
    """Noiseless data realizable by `fld` itself: its own RK4 trajectories."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1, 1, size=(n_traj, fld.dim))
    u = rng.uniform(-1, 1, size=(n_traj, fld.control_dim))
    grid = TimeGrid(0.0, horizon, n_samples - 1)
    states = rk4_solve_batch(lambda x, uu: eval_velocity(fld, x, uu), x0, u, grid)
    return [Trajectory(grid.times(), states[i], u[i], traj_id=i) for i in range(n_traj)]


class TestGradMatchingLoss:
    def test_batch_runs_each_net_once(self, monkeypatch):
        from stabledyn import nnet

        fld = make_field(dim=2, control_dim=2, seed=3)
        objective = GradMatchingObjective(field_generated_trajectories(fld, n_traj=4))
        stacks = []
        forward = nnet.mlp_forward

        def counted(layers, *args, **kwargs):
            stacks.append(layers)
            return forward(layers, *args, **kwargs)

        monkeypatch.setattr(nnet, "mlp_forward", counted)
        loss, grad = objective.loss_and_grad(fld)
        # one cached pass of the two nets' stack
        assert [id(layers) for layers in stacks] == [id(fld.layers)]
        assert len(fld.layers.first) == 2
        assert loss == objective.loss(fld)
        assert grad.shape == fld.params.shape
        # past 1,024 rows, one cached pass per row block
        stacks.clear()
        wide = GradMatchingObjective(field_generated_trajectories(fld, n_traj=21, n_samples=51))
        wide.loss_and_grad(fld)
        assert len(nnet.row_blocks(21 * 51)) == 2
        assert [id(layers) for layers in stacks] == [id(fld.layers)] * 2

    def test_exactly_zero_at_equilibrium_data(self):
        # constant data at an equilibrium: D is exact (zero) and the oracle
        # field velocity is exactly zero there, so the loss vanishes
        from util import make_constant_field

        fld = make_constant_field()  # target is identically 0.5
        t = np.linspace(0, 1, 11)
        traj = Trajectory(t, np.full((11, 1), 0.5), np.array([0.3]))
        loss, grad = GradMatchingObjective([traj]).loss_and_grad(fld)
        assert loss == 0.0
        assert not grad.any()

    def test_small_on_dense_field_data(self):
        fld = make_field(dim=2, control_dim=2, seed=1, decay_bounds=(-1.0, 0.0),
                         target_bounds=(0.0, 1.0))
        trajs = field_generated_trajectories(fld, n_samples=201, horizon=0.5, seed=2)
        loss = GradMatchingObjective(trajs).loss(fld)
        assert loss < 1e-8  # centered-difference discretization error only

    def test_invariant_to_batch_order(self):
        fld = make_field(dim=1, control_dim=1, seed=3)
        trajs = field_generated_trajectories(fld, n_traj=5, seed=4)
        perturbed = [
            Trajectory(t.times, t.states + 0.1, t.control, traj_id=t.traj_id) for t in trajs
        ]
        a, _ = GradMatchingObjective(perturbed).loss_and_grad(fld)
        b, _ = GradMatchingObjective(perturbed[::-1]).loss_and_grad(fld)
        assert a == pytest.approx(b, rel=1e-12)

    def test_gradient_matches_fd(self):
        fld = make_field(dim=1, control_dim=1, seed=5, hidden=(4,))
        trajs = field_generated_trajectories(fld, n_traj=3, n_samples=6, seed=6)
        noisy = [
            Trajectory(t.times, t.states + 0.05 * np.sin(t.times)[:, None], t.control)
            for t in trajs
        ]
        _, grad = GradMatchingObjective(noisy).loss_and_grad(fld)

        def f(p):
            return GradMatchingObjective(noisy).loss(fld.with_params(p))

        assert_close(grad, central_diff_grad(f, fld.params), rtol=1e-3, floor=1e-6)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            GradMatchingObjective([])

    @pytest.mark.parametrize("objective", [GradMatchingObjective, TrajMatchingObjective])
    def test_no_trajectories_is_a_dataset_error(self, objective):
        with pytest.raises(DatasetError, match="no trajectories"):
            objective([])


class TestTrajMatchingLoss:
    def test_zero_on_self_generated_data(self):
        fld = make_field(dim=1, control_dim=1, seed=7)
        trajs = field_generated_trajectories(fld, seed=8)
        loss = TrajMatchingObjective(trajs).loss(fld)
        assert loss <= 1e-20  # same solver, same grid

    def test_single_sample_trajectory_zero(self):
        fld = make_field(dim=1, control_dim=1, seed=9)
        traj = Trajectory(np.array([0.0]), np.array([[0.3]]), np.array([0.1]))
        loss, grad = TrajMatchingObjective([traj]).loss_and_grad(fld)
        assert loss == 0.0 and not grad.any()

    def test_residual_quadratic_scaling(self):
        fld = make_field(dim=1, control_dim=1, seed=10)
        trajs = field_generated_trajectories(fld, n_traj=2, seed=11)
        rng = np.random.default_rng(12)

        def with_offset(scale):
            out = []
            for t in trajs:
                e = rng.normal(size=t.states.shape)
                e[0] = 0.0  # keep the initial condition shared
                out.append((t, e * scale))
            return out

        rng = np.random.default_rng(12)
        data1 = [Trajectory(t.times, t.states + e, t.control) for t, e in with_offset(1.0)]
        rng = np.random.default_rng(12)
        data2 = [Trajectory(t.times, t.states + e, t.control) for t, e in with_offset(2.0)]
        l1 = TrajMatchingObjective(data1).loss(fld)
        l2 = TrajMatchingObjective(data2).loss(fld)
        assert l2 == pytest.approx(4.0 * l1, rel=1e-12)

    def test_gradient_matches_fd(self):
        fld = make_field(dim=1, control_dim=1, seed=13, hidden=(4,))
        trajs = field_generated_trajectories(fld, n_traj=2, n_samples=5, seed=14)
        shifted = [
            Trajectory(t.times, t.states + 0.02 * t.times[:, None] ** 2, t.control)
            for t in trajs
        ]
        _, grad = TrajMatchingObjective(shifted).loss_and_grad(fld)

        def f(p):
            return TrajMatchingObjective(shifted).loss(fld.with_params(p))

        assert_close(grad, central_diff_grad(f, fld.params), rtol=1e-3, floor=1e-6)

    def test_batch_linearizes_each_stage_once(self, monkeypatch):
        # one value forward, then four wide stage linearizations; per stage
        # d wide input-only reverses for the Jacobian and one wide reverse
        # for the parameter gradient, whatever the step count
        from stabledyn import integrate, training

        fld = make_field(dim=2, control_dim=2, seed=16, hidden=(4,),
                         decay_bounds=(-1.0, 0.0), target_bounds=(0.0, 1.0))
        trajs = field_generated_trajectories(fld, n_traj=3, n_samples=7, seed=17)
        calls = {"solve": 0, "velocity": 0, "vjp": 0, "input_vjp": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(training, "rk4_solve_batch",
                            counted("solve", training.rk4_solve_batch))
        monkeypatch.setattr(integrate, "velocity_cached",
                            counted("velocity", integrate.velocity_cached))
        monkeypatch.setattr(integrate, "velocity_vjp_cached",
                            counted("vjp", integrate.velocity_vjp_cached))
        monkeypatch.setattr(integrate, "velocity_input_vjp_cached",
                            counted("input_vjp", integrate.velocity_input_vjp_cached))
        TrajMatchingObjective(trajs).loss_and_grad(fld)
        assert calls == {"solve": 1, "velocity": 4, "vjp": 4, "input_vjp": 4 * fld.dim}

    def test_reused_tape_gives_a_fresh_objectives_gradient(self):
        # batches that shrink and grow (50 -> 1 -> 50 trajectories) over two
        # interleaved time grids write into one tape; each gradient has the
        # bits of an objective that has never run
        fld = make_field(dim=1, control_dim=1, seed=26, hidden=(5,))
        first = field_generated_trajectories(fld, n_traj=50, n_samples=6, seed=27)
        second = field_generated_trajectories(fld, n_traj=50, n_samples=4, horizon=0.3,
                                              seed=28)
        trajs = [Trajectory(t.times, t.states + 0.02 * np.sin(7.0 * t.times)[:, None],
                            t.control, traj_id=i)
                 for i, t in enumerate(x for pair in zip(first, second) for x in pair)]
        objective = TrajMatchingObjective(trajs)
        # 125 + 75 stage rows, then 3, then 250 (the tape grows), 5 + 3, 150
        batches = [np.arange(50)[::-1], [3], np.arange(0, 100, 2), [41, 40],
                   np.arange(1, 100, 2)]
        for batch in batches:
            loss, grad = objective.loss_and_grad(fld, batch)
            fresh_loss, fresh_grad = TrajMatchingObjective(trajs).loss_and_grad(fld, batch)
            assert loss == fresh_loss
            assert np.array_equal(grad, fresh_grad)

    def test_second_batch_writes_into_the_first_batchs_arrays(self, monkeypatch):
        from stabledyn import integrate

        fld = make_field(dim=1, control_dim=1, seed=30, hidden=(5,))
        trajs = field_generated_trajectories(fld, n_traj=4, n_samples=6, seed=31)
        objective = TrajMatchingObjective(trajs)
        written = []

        def spy(field, x2d, u2d, out=None):
            written.append([a for net in out for triple in net for a in triple])
            return velocity_cached(field, x2d, u2d, out)

        monkeypatch.setattr(integrate, "velocity_cached", spy)
        objective.loss_and_grad(fld)  # 4 trajectories x 5 steps: 20 rows per stage
        objective.loss_and_grad(fld, [0, 2])  # 10 rows per stage
        assert len(written) == 8
        for first, second in zip(written[:4], written[4:]):
            assert all(a.shape[0] == 20 and b.shape[0] == 10 for a, b in zip(first, second))
            assert all(b.base is a.base is not None for a, b in zip(first, second))

    def test_gradient_matches_fd_two_grids(self):
        # step-major stacking and the sum over blocks, with the two grids'
        # trajectories interleaved
        fld = make_field(dim=2, control_dim=2, seed=18, hidden=(4,),
                         decay_bounds=(-1.0, 0.0), target_bounds=(0.0, 1.0))
        first = field_generated_trajectories(fld, n_traj=2, n_samples=5, seed=19)
        second = field_generated_trajectories(fld, n_traj=2, n_samples=4, horizon=0.3, seed=20)
        trajs = [first[0], second[0], first[1], second[1]]
        shifted = [
            Trajectory(t.times, t.states + 0.05 * t.times[:, None] ** 2, t.control, traj_id=i)
            for i, t in enumerate(trajs)
        ]
        objective = TrajMatchingObjective(shifted)
        _, grad = objective.loss_and_grad(fld)

        def f(p):
            return objective.loss(fld.with_params(p))

        assert_close(grad, central_diff_grad(f, fld.params), rtol=1e-3, floor=1e-6)

    def test_index_scores_that_trajectory_across_grids(self):
        # index i is trajectories[i], whatever time grid the others use
        fld = make_field(dim=1, control_dim=1, seed=24)
        grids = [(0.2, 5), (0.3, 4), (0.2, 5), (0.3, 4), (0.25, 2)]
        trajs = [Trajectory(t.times, t.states + 0.1 * np.cos(t.times)[:, None], t.control,
                            traj_id=i)
                 for i, (horizon, n) in enumerate(grids)
                 for t in field_generated_trajectories(fld, n_traj=1, n_samples=n,
                                                       horizon=horizon, seed=25 + i)]
        objective = TrajMatchingObjective(trajs)
        for i, traj in enumerate(trajs):
            alone = TrajMatchingObjective([traj])
            assert objective.loss(fld, [i]) == alone.loss(fld)
            loss, grad = objective.loss_and_grad(fld, [i])
            assert loss == alone.loss(fld)
            assert np.array_equal(grad, alone.loss_and_grad(fld)[1])
        pair = [3, 0]
        assert objective.loss(fld, pair) == pytest.approx(
            TrajMatchingObjective([trajs[i] for i in pair]).loss(fld), rel=1e-15)

    def test_batch_gradient_is_sum_of_single_gradients(self):
        fld = make_field(dim=2, control_dim=2, seed=21, hidden=(4,),
                         decay_bounds=(-1.0, 0.0), target_bounds=(0.0, 1.0))
        trajs = field_generated_trajectories(fld, n_traj=4, n_samples=6, seed=22)
        noisy = [Trajectory(t.times, t.states + 0.03 * np.sin(5.0 * t.times)[:, None],
                            t.control, traj_id=t.traj_id) for t in trajs]
        objective = TrajMatchingObjective(noisy)
        _, grad = objective.loss_and_grad(fld)
        # each loss is a mean over its own samples, so the batch mean is a
        # quarter of the sum of the single-trajectory ones
        singles = sum(objective.loss_and_grad(fld, [i])[1] for i in range(4))
        assert np.max(np.abs(4.0 * grad - singles)) <= 1e-12 * np.max(np.abs(singles))

    def test_uneven_times_refused_by_traj_id(self):
        # the field's own trajectory, sampled off the even grid: matching it
        # on TimeGrid(0, 0.25, 5) would compare states at the wrong times
        fld = make_field(dim=1, control_dim=1, seed=15)
        times = np.array([0.0, 0.02, 0.05, 0.1, 0.2, 0.25])
        even = field_generated_trajectories(fld, n_traj=2, n_samples=6, horizon=0.25, seed=16)
        uneven = Trajectory(times, even[1].states, even[1].control, traj_id=41)
        with pytest.raises(DatasetError, match="trajectory 41 is not evenly spaced"):
            TrajMatchingObjective([even[0], uneven])
        # gradient matching takes its differences on the sample times
        GradMatchingObjective([even[0], uneven])

    def test_generated_grids_accepted(self):
        # toggle's truncated groups sample a finer grid at every 8th node
        proto = DataProtocol([[0.0, 0.0], [6.0, 6.0]],
                             [[5.0, 5.0, 2.5, 2.5], [0.1, 0.1, 0.1, 0.1]],
                             horizon=100.0, samples_per_traj=21, rk4_steps=160,
                             transient_truncate=True)
        trajs = gen_dataset(TOGGLE_SWITCH, proto).trajectories
        assert len({traj.times[-1] for traj in trajs}) > 1
        assert TrajMatchingObjective(trajs).n_traj == 4


class TestFeaturizedReverses:
    @pytest.mark.parametrize("objective,calls", [(GradMatchingObjective, 0),
                                                 (TrajMatchingObjective, 4)],
                             ids=["grad-matching", "traj-matching"])
    def test_featurize_dx_only_for_input_gradients(self, monkeypatch, objective, calls):
        # the parameter reverses build no input gradient, so the features'
        # derivative is taken only by the d = 1 input-only reverse of each of
        # the four RK4 stages; gradient matching takes none
        from stabledyn import field as field_mod

        fld = make_field(dim=1, control_dim=1, seed=31, hidden=(4,),
                         featurizer=Featurizer(-2.0, 2.0, num_modes=3))
        trajs = field_generated_trajectories(fld, n_traj=3, n_samples=5, seed=32)
        count = []
        featurize_dx = field_mod.featurize_dx

        def counted(*args, **kwargs):
            count.append(1)
            return featurize_dx(*args, **kwargs)

        monkeypatch.setattr(field_mod, "featurize_dx", counted)
        _, grad = objective(trajs).loss_and_grad(fld)
        assert len(count) == calls
        assert grad.shape == fld.params.shape


def _owner(arr):
    """The array that owns ``arr``'s memory, found by walking ``.base``."""
    while arr.base is not None:
        arr = arr.base
    return arr


def _resting_trajectories(system, rows, seed):
    """Trajectories of 51 samples (the last one longer) and ``rows`` rows in
    all, each resting at a random state of the system's domain: their
    derivative estimates are zero, so the loss is the velocity's square
    and keeps its last bits."""
    d, q = benchmarks.SYSTEM_DIMS[system]
    lo, hi = np.array(benchmarks.default_model(system).domain).T
    rng = np.random.default_rng(seed)
    lengths = [51] * (rows // 51 - 1) + [51 + rows % 51]
    return [Trajectory(np.linspace(0.0, 1.0, n), np.repeat(rng.uniform(lo, hi, (1, d)), n, axis=0),
                       rng.uniform(0.1, 1.0, q), traj_id=i) for i, n in enumerate(lengths)]


def _one_pass_loss(fld, trajs):
    """(loss, velocity): the gradient-matching loss as one velocity call
    on all rows, and that call's velocity."""
    x = np.concatenate([t.states for t in trajs])
    u = np.concatenate([np.broadcast_to(t.control, (len(t.times), len(t.control)))
                        for t in trajs])
    d = np.concatenate([finite_diff(t) for t in trajs])
    v = eval_velocity(fld, x, u)
    res = d - v
    return float(np.mean(np.sum(res * res, axis=1))), v


class TestOwnedData:
    @pytest.mark.parametrize("objective", [GradMatchingObjective, TrajMatchingObjective])
    def test_parsed_table_is_freed_once_the_objective_is_built(self, tmp_path, objective):
        fld = make_field(dim=2, control_dim=2, seed=40)
        path = tmp_path / "data.csv"
        write_trajectories_csv(path, field_generated_trajectories(fld, n_traj=5, seed=41))
        trajs = read_trajectories_csv(path)
        table = weakref.ref(_owner(trajs[0].states))
        assert _owner(trajs[-1].control) is table()  # every trajectory views it
        built = objective(trajs)
        del trajs
        assert table() is None
        assert built.n_traj == 5

    def test_batch_is_its_trajectories_in_the_order_chosen(self):
        # row ranges of unequal lengths, gathered out of order
        fld = make_field(dim=2, control_dim=2, seed=42)
        trajs = [field_generated_trajectories(fld, n_traj=1, n_samples=n, seed=43 + n)[0]
                 for n in (3, 7, 4, 9)]
        objective = GradMatchingObjective(trajs)
        for batch in ([2, 0], [3, 1, 2], [1]):
            alone = GradMatchingObjective([trajs[i] for i in batch])
            loss, grad = objective.loss_and_grad(fld, batch)
            assert loss == objective.loss(fld, batch) == alone.loss(fld)
            assert np.array_equal(grad, alone.loss_and_grad(fld)[1])

    @pytest.mark.parametrize("system", [BUDWORM, TWO_TANKS])
    @pytest.mark.parametrize("rows,blocks",[(1024, [1024]), (1025, [513, 512]),
                                             (2049, [683, 683, 683])])
    def test_streamed_loss_has_the_one_pass_bits(self, monkeypatch, system, rows, blocks):
        # budworm's 1-column output products round by row position, so the
        # blocks must be those of one value pass over all rows
        fld = make_untrained_field(system, 3)
        trajs = _resting_trajectories(system, rows, seed=rows)
        objective = GradMatchingObjective(trajs)
        velocities = []

        def recorded(*args):
            velocities.append(eval_velocity(*args))
            return velocities[-1]

        monkeypatch.setattr(training, "eval_velocity", recorded)
        loss, v = _one_pass_loss(fld, trajs)
        assert objective.loss(fld) == loss
        assert [len(part) for part in velocities] == blocks
        assert np.array_equal(np.concatenate(velocities), v)

    @pytest.mark.parametrize("system", [BUDWORM, TWO_TANKS])
    def test_streamed_loss_has_the_one_pass_bits_on_desk_data(self, system):
        trajs = gen_dataset(system, default_protocol(system)).trajectories
        fld = make_untrained_field(system, 0)
        assert GradMatchingObjective(trajs).loss(fld) == _one_pass_loss(fld, trajs)[0]


    @pytest.mark.parametrize("system", [BUDWORM, TWO_TANKS])
    def test_batch_loss_has_the_bits_of_the_streamed_loss(self, system):
        # a 2,550-row batch runs in `loss`'s row blocks; its gradient scales
        # every block by the whole batch's row count
        objective = GradMatchingObjective(gen_dataset(system, default_protocol(system))
                                          .trajectories)
        fld = make_untrained_field(system, 0)
        batch = np.random.default_rng(5).permutation(objective.n_traj)[:50]
        loss, grad = objective.loss_and_grad(fld, batch)
        assert loss == objective.loss(fld, batch)
        x, u, d = objective._gather(batch)
        assert len(x) == 2550
        v, cache = velocity_cached(fld, x, u)
        assert_close(grad, velocity_vjp_cached(fld, cache, (-2.0 / len(x)) * (d - v)),
                     rtol=1e-9, floor=1e-12)


class TestKfold:
    def test_singleton_folds(self):
        folds = kfold_split(10, 10, seed=0)
        assert len(folds) == 10
        assert all(len(val) == 1 for _, val in folds)

    def test_partition_properties(self):
        folds = kfold_split(23, 5, seed=1)
        all_val = np.concatenate([val for _, val in folds])
        assert sorted(all_val) == list(range(23))
        sizes = sorted(len(val) for _, val in folds)
        assert sizes[-1] - sizes[0] <= 1
        for train_idx, val_idx in folds:
            assert not set(train_idx) & set(val_idx)
            assert len(train_idx) + len(val_idx) == 23

    def test_deterministic(self):
        a = kfold_split(17, 4, seed=9)
        b = kfold_split(17, 4, seed=9)
        for (ta, va), (tb, vb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(va, vb)

    def test_too_few_trajectories(self):
        with pytest.raises(ValueError):
            kfold_split(3, 5, seed=0)

    def test_too_few_trajectories_is_a_dataset_error(self):
        with pytest.raises(DatasetError, match="cannot split 3 trajectories into 5 folds"):
            kfold_split(3, 5, seed=0)


class TestTrainLoop:
    def test_loss_decreases_and_is_deterministic(self):
        target = make_field(dim=1, control_dim=1, seed=20)
        trajs = field_generated_trajectories(target, n_traj=12, n_samples=11, seed=21)
        start = make_field(dim=1, control_dim=1, seed=99)
        cfg = TrainConfig(GRAD_MATCHING, epochs=40, batch_size=4, lr0=0.01, seed=0)
        res1 = train(start, make_objective(cfg, trajs), cfg)
        res2 = train(start, make_objective(cfg, trajs), cfg)
        assert res1.best_loss < res1.loss_history[0] * 0.5
        assert res1.loss_history == res2.loss_history
        assert np.array_equal(res1.field.params, res2.field.params)
        assert len(res1.lr_trace) == cfg.epochs

    @pytest.mark.parametrize("kind", [GRAD_MATCHING, TRAJ_MATCHING])
    def test_one_objective_serves_two_runs(self, kind):
        # batches of 3, 3 and 1 trajectories: the stage tape grows, then
        # serves a smaller block, and must carry nothing into the next run
        target = make_field(dim=1, control_dim=1, seed=26)
        trajs = field_generated_trajectories(target, n_traj=7, n_samples=6, seed=27)
        cfg = TrainConfig(kind, epochs=3, batch_size=3, lr0=0.01, seed=4)
        objective = make_objective(cfg, trajs)
        shared = [train(make_field(dim=1, control_dim=1, seed=s), objective, cfg)
                  for s in (96, 95)]
        fresh = [train(make_field(dim=1, control_dim=1, seed=s), make_objective(cfg, trajs), cfg)
                 for s in (96, 95)]
        for a, b in zip(shared, fresh):
            assert a.loss_history == b.loss_history
            assert np.array_equal(a.field.params, b.field.params)

    def test_traj_matching_training_runs(self):
        target = make_field(dim=1, control_dim=1, seed=22)
        trajs = field_generated_trajectories(target, n_traj=6, n_samples=6, seed=23)
        start = make_field(dim=1, control_dim=1, seed=98)
        cfg = TrainConfig(TRAJ_MATCHING, epochs=10, batch_size=3, lr0=0.01, seed=1)
        res = train(start, make_objective(cfg, trajs), cfg)
        assert res.best_loss <= min(res.loss_history)
        assert np.isfinite(res.best_loss)

    def test_best_params_track_full_data_loss(self):
        target = make_field(dim=1, control_dim=1, seed=24)
        trajs = field_generated_trajectories(target, n_traj=8, seed=25)
        start = make_field(dim=1, control_dim=1, seed=97)
        cfg = TrainConfig(GRAD_MATCHING, epochs=15, batch_size=4, lr0=0.05, seed=2)
        res = train(start, make_objective(cfg, trajs), cfg)
        final_loss = GradMatchingObjective(trajs).loss(res.field)
        assert final_loss == pytest.approx(res.best_loss, rel=1e-12)


class TestCrossValidate:
    def test_oracle_candidate_wins(self):
        oracle = make_field(dim=1, control_dim=1, seed=30)
        trajs = field_generated_trajectories(oracle, n_traj=10, n_samples=41, seed=31)
        candidates = [
            ("oracle", lambda seed: oracle),
            ("random", lambda seed: make_field(dim=1, control_dim=1, seed=seed + 500)),
        ]
        cfg = TrainConfig(GRAD_MATCHING, epochs=2, batch_size=4, lr0=1e-5, seed=0,
                          folds=5, restarts=1)
        report = cross_validate(trajs, candidates, cfg)
        assert report.selected == "oracle"
        assert all(len(fr.fold_losses) == 5 for fr in report.folds)
        doc = report.to_dict()
        assert doc["selected"] == "oracle"
        assert len(doc["candidates"]) == 2

    def test_deterministic_selection(self):
        oracle = make_field(dim=1, control_dim=1, seed=32)
        trajs = field_generated_trajectories(oracle, n_traj=8, n_samples=21, seed=33)
        candidates = [
            ("a", lambda seed: make_field(dim=1, control_dim=1, seed=seed)),
            ("b", lambda seed: make_field(dim=1, control_dim=1, seed=seed + 1)),
        ]
        cfg = TrainConfig(GRAD_MATCHING, epochs=2, batch_size=4, lr0=0.01, seed=3,
                          folds=4, restarts=1)
        r1 = cross_validate(trajs, candidates, cfg)
        r2 = cross_validate(trajs, candidates, cfg)
        assert r1.selected == r2.selected
        assert [f.fold_losses for f in r1.folds] == [f.fold_losses for f in r2.folds]
