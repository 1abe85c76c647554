import io

import numpy as np
import pytest

from stabledyn import benchmarks
from stabledyn.control import ControlRecipe, feedback_simulate
from stabledyn.field import (eval_target, eval_velocity, velocity_cached,
                             velocity_input_vjp_cached, velocity_vjp_cached)
from stabledyn.integrate import (
    DatasetError,
    StageTape,
    TimeGrid,
    Trajectory,
    finite_diff,
    read_trajectories_csv,
    rk4_solve,
    rk4_solve_batch,
    rk4_solve_unrolled_grad,
    write_trajectories_csv,
)
from stabledyn.nnet import NonFiniteError
from util import assert_close, central_diff_grad, make_field

NO_U = np.zeros(0)


def decay_rhs(x, u):
    return -x


class TestTimeGrid:
    @pytest.mark.parametrize("t0, t1, n_steps, reason", [
        (1.0, 1.0, 10, "need t1 > t0"),
        (0.0, 1.0, 0, "need n_steps >= 1"),
        (0.0, 5e-324, 50, "not positive"),  # the step underflows to 0
        (0.0, 1.0, 10**400, "float range"),  # the step count overflows a float
    ], ids=["empty-span", "no-step", "underflowing-step", "uncountable-steps"])
    def test_refuses_a_grid_without_a_positive_step(self, t0, t1, n_steps, reason):
        with pytest.raises(ValueError, match=reason):
            TimeGrid(t0, t1, n_steps)


class TestRk4:
    def test_exponential_decay(self):
        traj = rk4_solve(decay_rhs, [1.0], NO_U, TimeGrid(0.0, 1.0, 100))
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) <= 1e-9

    def test_zero_rhs_constant(self):
        traj = rk4_solve(lambda x, u: np.zeros_like(x), [0.3, -2.0], NO_U, TimeGrid(0, 5, 20))
        assert np.all(traj.states == traj.states[0])

    def test_fourth_order_convergence(self):
        # halving h cuts the error on dx=-x by roughly 2^4
        errs = []
        for n in (25, 50):
            traj = rk4_solve(decay_rhs, [1.0], NO_U, TimeGrid(0.0, 1.0, n))
            errs.append(abs(traj.states[-1, 0] - np.exp(-1.0)))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_batch_solve_matches_single(self):
        grid = TimeGrid(0.0, 1.0, 17)
        x0s = np.array([[1.0], [2.0], [-0.5]])
        batch = rk4_solve_batch(decay_rhs, x0s, np.zeros((3, 0)), grid)
        for i, x0 in enumerate(x0s):
            single = rk4_solve(decay_rhs, x0, NO_U, grid)
            assert_close(batch[i], single.states, rtol=1e-13, floor=1e-13)

    @pytest.mark.parametrize("every", [1, 2, 5, 10])
    def test_every_kth_node_equals_the_full_solve_sliced(self, every):
        grid = TimeGrid(0.0, 2.0, 10)
        x0 = np.array([[0.2, -1.0], [1.5, 0.3], [-0.7, 0.9]])
        u = np.array([[0.1], [0.4], [-0.3]])
        rhs = lambda x, uu: uu - x**3 + np.sin(x[:, ::-1])
        full = rk4_solve_batch(rhs, x0, u, grid)
        kept = rk4_solve_batch(rhs, x0, u, grid, every=every)
        assert kept.shape == (3, 10 // every + 1, 2)
        assert np.array_equal(kept, full[:, ::every])

    @pytest.mark.parametrize("every", [0, 3, 11])
    def test_every_must_divide_the_step_count(self, every):
        with pytest.raises(ValueError, match="divisor of n_steps 10"):
            rk4_solve_batch(decay_rhs, np.ones((1, 1)), np.zeros((1, 0)),
                            TimeGrid(0.0, 1.0, 10), every=every)

    def test_nonfinite_state_between_kept_nodes_reports_step(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="step"):
            rk4_solve_batch(lambda x, u: x * x, np.array([[5.0]]), np.zeros((1, 0)),
                            TimeGrid(0, 10, 100), every=100)

    def test_nonfinite_state_reports_step(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="step"):
            rk4_solve(lambda x, u: x * x, [5.0], NO_U, TimeGrid(0, 10, 100))


def reference_unrolled_grad(fld, x0, u, grid, cotangents):
    """The RK4 parameter gradient step by step: a cached forward per stage
    of every step, then a reverse that replays each stage's parameter and
    input VJPs."""
    h = grid.h
    x, caches = x0, []
    for _ in range(grid.n_steps):
        k1, c1 = velocity_cached(fld, x, u)
        k2, c2 = velocity_cached(fld, x + (0.5 * h) * k1, u)
        k3, c3 = velocity_cached(fld, x + (0.5 * h) * k2, u)
        k4, c4 = velocity_cached(fld, x + h * k3, u)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        caches.append((c1, c2, c3, c4))
    pgrad = np.zeros(fld.params.shape)
    lam = cotangents[:, grid.n_steps]
    for n in range(grid.n_steps - 1, -1, -1):
        dxn, dy = lam, 0.0
        # stages 4..1 with their RK4 weights and the step each feeds back
        for cache, weight, back in zip(caches[n][::-1], (1, 2, 2, 1), (h, 0.5 * h, 0.5 * h, 0)):
            cot = (weight * h / 6.0) * lam + dy
            pgrad += velocity_vjp_cached(fld, cache, cot)
            dy_next, _ = velocity_input_vjp_cached(fld, cache, cot)
            dxn = dxn + dy_next
            dy = back * dy_next
        lam = dxn + cotangents[:, n]
    return pgrad


class TestUnrolledGrad:
    @staticmethod
    def solve(fld, x0, u, grid):
        return rk4_solve_batch(lambda x, uu: eval_velocity(fld, x, uu), x0, u, grid)

    @pytest.mark.parametrize("d, q, n_steps, batch", [(1, 1, 1, 3), (1, 1, 9, 5), (2, 2, 6, 4)])
    def test_equals_step_by_step_reverse(self, d, q, n_steps, batch):
        fld = make_field(dim=d, control_dim=q, seed=6, hidden=(5,),
                         decay_bounds=(-1.0, 0.0), target_bounds=(0.0, 1.0))
        grid = TimeGrid(0.0, 0.4, n_steps)
        rng = np.random.default_rng(7)
        x0 = rng.uniform(0, 1, size=(batch, d))
        u = rng.uniform(0, 1, size=(batch, q))
        cots = rng.normal(size=(batch, n_steps + 1, d))
        grad = rk4_solve_unrolled_grad(fld, self.solve(fld, x0, u, grid), u, grid, cots,
                                       StageTape())
        want = reference_unrolled_grad(fld, x0, u, grid, cots)
        assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_cotangents(self):
        fld = make_field(dim=1, control_dim=1, seed=0)
        grid = TimeGrid(0, 0.5, 5)
        x0, u = np.array([[0.1], [0.4]]), np.array([[0.0], [0.2]])
        grad = rk4_solve_unrolled_grad(fld, self.solve(fld, x0, u, grid), u, grid,
                                       np.zeros((2, 6, 1)), StageTape())
        assert not grad.any()

    def test_shape_mismatch_rejected(self):
        fld = make_field(dim=1, control_dim=1, seed=0)
        grid = TimeGrid(0, 0.5, 5)
        x0, u = np.array([[0.1], [0.4]]), np.array([[0.0], [0.2]])
        states = self.solve(fld, x0, u, grid)
        with pytest.raises(ValueError, match="states"):
            rk4_solve_unrolled_grad(fld, states, u, TimeGrid(0, 0.5, 4), np.zeros((2, 5, 1)),
                                    StageTape())
        with pytest.raises(ValueError, match="cotangent"):
            rk4_solve_unrolled_grad(fld, states, u, grid, np.zeros((2, 5, 1)), StageTape())

    @pytest.mark.parametrize("n_steps", [1, 7])
    def test_grad_matches_finite_differences(self, n_steps):
        fld = make_field(dim=1, control_dim=1, seed=1, hidden=(4,))
        grid = TimeGrid(0.0, 0.25, n_steps)
        rng = np.random.default_rng(2)
        x0 = rng.uniform(-1, 1, size=(3, 1))
        u = rng.uniform(-1, 1, size=(3, 1))
        cots = rng.normal(size=(3, n_steps + 1, 1))
        grad = rk4_solve_unrolled_grad(fld, self.solve(fld, x0, u, grid), u, grid, cots,
                                       StageTape())

        def objective(p):
            return float(np.sum(cots * self.solve(fld.with_params(p), x0, u, grid)))

        fd = central_diff_grad(objective, fld.params)
        assert_close(grad, fd, rtol=1e-3, floor=1e-5, label="unrolled")

    def test_grad_matches_fd_2d_states(self):
        fld = make_field(dim=2, control_dim=2, seed=4, hidden=(4,),
                         decay_bounds=(-1.0, 0.0), target_bounds=(0.0, 1.0))
        grid = TimeGrid(0.0, 0.5, 4)
        rng = np.random.default_rng(5)
        x0 = rng.uniform(0, 1, size=(2, 2))
        u = rng.uniform(0, 1, size=(2, 2))
        cots = rng.normal(size=(2, 5, 2))
        grad = rk4_solve_unrolled_grad(fld, self.solve(fld, x0, u, grid), u, grid, cots,
                                       StageTape())

        def objective(p):
            return float(np.sum(cots * self.solve(fld.with_params(p), x0, u, grid)))

        assert_close(grad, central_diff_grad(objective, fld.params), rtol=1e-3, floor=1e-5)

    def test_tape_holds_two_arrays_per_layer_and_stage_plus_shared_scratch(self):
        # a training batch of sym-hysteresis: 50 trajectories of 50 steps
        fld = benchmarks.make_untrained_field("sym-hysteresis", 0)
        grid = TimeGrid(0.0, 1.0, 50)
        rng = np.random.default_rng(3)
        x0 = rng.uniform(-1.5, 1.5, size=(50, 1))
        u = rng.uniform(-1, 1, size=(50, 1))
        tape = StageTape()
        rk4_solve_unrolled_grad(fld, self.solve(fld, x0, u, grid), u, grid,
                                rng.normal(size=(50, 51, 1)), tape)
        rows = 50 * 50
        held = {id(view.base): view.base for stage in tape.stages(fld, rows)
                for layer in stage for view in layer}
        widths = [*fld.decay_spec.layer_sizes[1:-1], *fld.target_spec.layer_sizes[1:-1]]
        kept = 4 * sum(2 * rows * width for width in widths)
        scratch = sum(2 * rows * width for width in set(widths))
        assert len(held) == 17
        assert sum(arr.nbytes for arr in held.values()) == 8 * (kept + scratch)


def still_plant(x, u):
    return np.zeros_like(x)


def em_paths(plant_rhs, x0, grid, sigma, seeds, u0=0.0, x_ref=0.0):
    """`feedback_simulate` with the control pulled toward x_ref through the
    identity target map, so only its Euler-Maruyama state step is under test."""
    recipe = ControlRecipe(k=1, eta=1.0, sigma=sigma, t_per_target=grid.t1 - grid.t0,
                           step=grid.h, x0=(x0,), u0=(u0,))
    targets = np.full((len(seeds), 1, 1), x_ref)
    return feedback_simulate(plant_rhs, lambda x, u: u, recipe, targets, seeds, [0.0],
                             grid=grid)


class TestEulerMaruyama:
    def test_zero_diffusion_equals_euler(self):
        grid = TimeGrid(0.0, 1.0, 40)
        trace = em_paths(lambda x, u: -x, 1.0, grid, 0.0, seeds=[0])
        x = np.array([1.0])
        for n in range(grid.n_steps):
            x = x + grid.h * (-x)
        assert trace.states[-1, 0, 0] == x[0]  # bitwise

    def test_single_step_formula(self):
        # x1 = x0 + sqrt(h) * sigma * sqrt(|x0|) * xi with xi the seed's first
        # increment; u1 = u0 - h * eta * (u0 - x_ref), up to the rounding of the
        # central-difference gradient
        grid = TimeGrid(0.0, 0.25, 1)
        xi = np.random.default_rng([4, 2]).standard_normal((1, 1))[0, 0]
        trace = em_paths(still_plant, 2.0, grid, 0.3, seeds=[[4, 2]], u0=0.5, x_ref=0.1)
        assert_close(trace.states[-1, 0], [2.0 + np.sqrt(0.25) * 0.3 * np.sqrt(2.0) * xi],
                     rtol=1e-15)
        assert_close(trace.controls[-1, 0], [0.5 - 0.25 * (0.5 - 0.1)], rtol=1e-9)

    def test_seeded_paths_reproducible(self):
        grid = TimeGrid(0.0, 1.0, 10)
        a = em_paths(lambda x, u: -x, 1.0, grid, 0.1, seeds=[[7, 3]]).states[:, 0]
        b = em_paths(lambda x, u: -x, 1.0, grid, 0.1, seeds=[[7, 3]]).states[:, 0]
        c, d = em_paths(lambda x, u: -x, 1.0, grid, 0.1,
                        seeds=[[7, 4], [7, 3]]).states.swapaxes(0, 1)
        assert np.array_equal(a, b)
        assert np.array_equal(a, d)  # a trial's path ignores its batch
        assert not np.array_equal(a, c)

    def test_increment_variance(self):
        # drift 0, diffusion c at x0 = 1: Var[x_1 - x_0] = h * c^2 within 10%
        # over 1e4 trials, one batch row each
        grid = TimeGrid(0.0, 0.1, 1)
        c = 0.7
        trace = em_paths(still_plant, 1.0, grid, c, seeds=[[11, i] for i in range(10000)])
        incs = trace.states[1, :, 0] - 1.0
        var = np.var(incs)
        assert abs(var - grid.h * c * c) <= 0.1 * grid.h * c * c


class TestFiniteDiff:
    def test_constant(self):
        traj = Trajectory(np.linspace(0, 1, 11), np.full((11, 2), 3.3), NO_U)
        assert not finite_diff(traj).any()

    def test_quadratic_exact_inside(self):
        t = np.linspace(0, 2, 21)
        traj = Trajectory(t, t**2, NO_U)
        d = finite_diff(traj)
        assert_close(d[1:-1, 0], 2 * t[1:-1], rtol=1e-12)

    def test_linear_exact_everywhere(self):
        t = np.linspace(0, 5, 26)
        traj = Trajectory(t, 4.0 * t - 1.0, NO_U)
        assert_close(finite_diff(traj)[:, 0], np.ones(26) * 4.0, rtol=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            finite_diff(Trajectory(np.array([0.0]), np.array([[1.0]]), NO_U))

    def test_one_sample_is_a_dataset_error_naming_the_trajectory(self):
        traj = Trajectory(np.array([0.0]), np.array([[1.0]]), NO_U, traj_id=8)
        with pytest.raises(DatasetError, match="trajectory 8: .* at least 2 samples, got 1"):
            finite_diff(traj)


def reference_write_csv(path, trajectories):
    """The per-cell writer that the table writer replaced."""
    d = trajectories[0].dim
    q = len(trajectories[0].control)
    header = ["traj_id", "t"] + [f"x_{i}" for i in range(d)] + [f"u_{i}" for i in range(q)]
    fmt = lambda v: format(float(v), ".17g")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for traj in trajectories:
            u_cols = [fmt(v) for v in traj.control]
            for t, row in zip(traj.times, traj.states):
                cells = [str(traj.traj_id), fmt(t)] + [fmt(v) for v in row] + u_cols
                fh.write(",".join(cells) + "\n")


def reference_read_csv(path):
    """The list reader that the table reader replaced."""
    with open(path) as fh:
        header = next(fh).strip().split(",")
        d = sum(1 for c in header if c.startswith("x_"))
        q = sum(1 for c in header if c.startswith("u_"))
        groups = {}
        for line in fh:
            cells = line.rstrip("\n").split(",")
            groups.setdefault(int(cells[0]), []).append([float(c) for c in cells[1:]])
    out = []
    for tid, rows in groups.items():
        rows = np.asarray(rows)
        out.append(Trajectory(rows[:, 0], rows[:, 1 : 1 + d], rows[0, 1 + d : 1 + d + q],
                              traj_id=tid))
    return out


def same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


SPECIAL = np.array([-0.0, 5e-324, 1e308, -1e308, np.nan, 0.0, -5e-324, np.pi])


def special_trajectories(d, q, shared_grid, n=4, rows=6):
    rng = np.random.default_rng(10 * d + q + shared_grid)
    grid = np.concatenate([[-0.0, 5e-324], np.sort(rng.uniform(0.5, 9.0, rows - 2))])
    trajs = []
    for i in range(n):
        times = grid if shared_grid else np.sort(rng.uniform(0, 10, rows))
        states = rng.normal(size=(rows, d)) * 10.0 ** rng.integers(-300, 300, size=(rows, d))
        states.flat[rng.choice(rows * d, size=min(4, rows * d), replace=False)] = \
            rng.choice(SPECIAL, size=min(4, rows * d))
        control = rng.choice(SPECIAL, size=q)
        trajs.append(Trajectory(times, states, control, traj_id=7 * i))
    return trajs


class TestTrajectoryCsv:
    H = "traj_id,t,x_0,u_0\n"

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        trajs = [
            Trajectory(
                np.sort(rng.uniform(0, 10, 5)),
                rng.normal(size=(5, 2)) * np.pi,
                rng.normal(size=3),
                traj_id=i,
            )
            for i in range(4)
        ]
        path = tmp_path / "t.csv"
        write_trajectories_csv(path, trajs)
        back = read_trajectories_csv(path)
        assert len(back) == 4
        for a, b in zip(trajs, back):
            assert a.traj_id == b.traj_id
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.control, b.control)

    def test_header_shape(self, tmp_path):
        traj = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)), np.zeros(4))
        path = tmp_path / "t.csv"
        write_trajectories_csv(path, [traj])
        header = path.read_text().splitlines()[0]
        assert header == "traj_id,t,x_0,x_1,u_0,u_1,u_2,u_3"

    @pytest.mark.parametrize("shared_grid", [True, False], ids=["shared-grid", "own-grids"])
    @pytest.mark.parametrize("q", [1, 4])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_reference_bytes_and_bits(self, tmp_path, d, q, shared_grid):
        trajs = special_trajectories(d, q, shared_grid)
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_trajectories_csv(new, trajs)
        reference_write_csv(ref, trajs)
        assert new.read_bytes() == ref.read_bytes()
        expected = reference_read_csv(ref)
        for source in (new, io.BytesIO(new.read_bytes())):
            back = read_trajectories_csv(source)
            assert [t.traj_id for t in back] == [t.traj_id for t in expected]
            for a, b in zip(back, expected):
                assert same_bits(a.times, b.times)
                assert same_bits(a.states, b.states)
                assert same_bits(a.control, b.control)

    def test_interleaved_ids_come_back_in_first_seen_order(self):
        body = "5,0,1,9\n2,0,10,8\n5,1,2,9\n9,0,100,7\n2,1,20,8\n5,2,3,9\n"
        back = read_trajectories_csv(io.BytesIO((self.H + body).encode()))
        assert [t.traj_id for t in back] == [5, 2, 9]
        assert [t.states[:, 0].tolist() for t in back] == [[1, 2, 3], [10, 20], [100]]
        assert [t.times.tolist() for t in back] == [[0, 1, 2], [0, 1], [0]]
        assert [t.control.tolist() for t in back] == [[9], [8], [7]]

    def test_header_only_gives_no_trajectories(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(self.H)
        assert read_trajectories_csv(path) == []
        assert read_trajectories_csv(io.BytesIO(self.H.rstrip("\n").encode())) == []

    def test_rejects_nan_time(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            read_trajectories_csv(
                io.BytesIO((self.H + "1,0,0,0\n1,nan,0,0\n1,2,0,0\n").encode()))

    def test_rejects_header_out_of_order(self):
        with pytest.raises(ValueError, match="header 'traj_id,t,u_0,x_0' is not"):
            read_trajectories_csv(io.BytesIO(b"traj_id,t,u_0,x_0\n1,0,1,2\n"))

    @pytest.mark.parametrize("body", [
        "5,0,1,9\n2,0,10,8\n5,1,2,9\n2,1,20,7\n",
        "2,0,10,nan\n2,1,20,8\n",
        "2,0,10,inf\n2,1,20,-inf\n",
    ], ids=["number", "nan-then-number", "inf-then-minus-inf"])
    def test_rejects_control_changing_within_a_trajectory(self, body):
        with pytest.raises(ValueError, match="trajectory 2 changes its control between rows"):
            read_trajectories_csv(io.BytesIO((self.H + body).encode()))

    def test_equal_non_finite_controls_are_one_control(self):
        # nan on every row of a trajectory is one (non-finite) control, which
        # the training data check refuses by name
        back = read_trajectories_csv(io.BytesIO((self.H + "1,0,0,nan\n1,1,0,nan\n"
                                                 "2,0,0,inf\n2,1,0,inf\n").encode()))
        assert np.isnan(back[0].control).all() and back[1].control.tolist() == [np.inf]

    @pytest.mark.parametrize("bad,reason", [
        ("\n", "line 3 is blank"),
        ("   \n", "line 3 is blank"),
        ("# a comment\n", "line 3: expected 4 cells, found 1"),
        ("1.5,1,0,0\n", "line 3 has traj_id '1.5', not an integer"),
        ("1,1,0\n", "line 3: expected 4 cells, found 3"),
        ("1,1,0,0,0\n", "line 3: expected 4 cells, found 5"),
        ("1,1,x,0\n", "line 3: could not convert"),
    ], ids=["blank", "spaces", "comment", "non-integer-id", "short", "long", "non-numeric"])
    def test_rejects_malformed_rows(self, bad, reason):
        for text in (self.H + "1,0,0,0\n" + bad + "1,2,0,0\n", self.H + "1,0,0,0\n" + bad):
            with pytest.raises(ValueError, match=reason):
                read_trajectories_csv(io.BytesIO(text.encode()))


class TestForwardInvariance:
    def test_random_fields_stay_in_hull(self):
        # decay < 0 pulls each coordinate toward the bounded target box, so
        # trajectories never leave hull({x0} U target-bounds box)
        rng = np.random.default_rng(17)
        for trial in range(20):
            dim = int(rng.integers(1, 3))
            fld = make_field(
                dim=dim,
                control_dim=1,
                seed=int(rng.integers(1e6)),
                weight_scale=rng.uniform(0.3, 2.0),
                decay_bounds=(-2.0, -0.05),
                target_bounds=(-1.0, 1.0),
            )
            x0 = rng.uniform(-3, 3, size=(1, dim))
            u = rng.uniform(-1, 1, size=(1, 1))
            states = rk4_solve_batch(
                lambda x, uu: eval_velocity(fld, x, uu), x0, u, TimeGrid(0, 20, 400)
            )[0]
            lo = np.minimum(x0[0], -1.0) - 1e-6
            hi = np.maximum(x0[0], 1.0) + 1e-6
            assert np.all(states >= lo) and np.all(states <= hi)
