import math

import numpy as np
import pytest

from stabledyn import benchmarks, control, field, nnet
from stabledyn.control import (
    ControlRecipe,
    active_targets,
    control_gate,
    control_objective_grad,
    control_schedule,
    feedback_simulate,
    iterate_target,
    smooth_heaviside,
)
from stabledyn.field import (
    _batch_xu,
    _target_forward,
    _target_input_vjp,
    eval_target,
    eval_velocity,
    residual,
    target_cached,
    target_vjp,
)
from stabledyn.integrate import TimeGrid
from theory import (
    LinearControlProblem,
    gd_linear,
    gradient_flow_linear,
    linear_minnorm,
    optimal_gd_step,
    ridge_solve,
)
from util import assert_close, central_diff_grad, make_constant_field, make_field

TANK_BOUNDS = ((0.05, 0.95, 50.0),) * 2
OPEN = (-math.inf, math.inf, 1.0)
TOGGLE_BOUNDS = ((0.1, math.inf, 200.0),) * 2 + ((1.1, math.inf, 200.0),) * 2


def signed_term_gate(u, terms):
    """The gate as a sum of signed logistic terms per channel, each term a
    (sign, boundary, rate) and an empty list an ungated channel: the
    reference that per-channel bounds reproduce bit for bit."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty_like(u)
    for i, channel in enumerate(terms):
        if not channel:
            out[..., i] = 1.0
            continue
        val = 0.0
        for sign, boundary, rate in channel:
            val += sign * smooth_heaviside(u[..., i] - boundary, rate)
        out[..., i] = val
    return out


class TestSmoothHeaviside:
    def test_midpoint(self):
        for rate in (1.0, 50.0, 200.0):
            assert smooth_heaviside(0.0, rate) == 0.5

    def test_saturation_value(self):
        assert smooth_heaviside(0.45, 50.0) == pytest.approx(1.0 - 1.6918977e-10, abs=1e-14)

    def test_symmetry(self):
        # 1 - H(x) loses a few digits when H saturates; 1e-9 is float-honest
        xs = np.linspace(-2, 2, 17)
        assert_close(smooth_heaviside(-xs, 7.0), 1.0 - smooth_heaviside(xs, 7.0), rtol=1e-9)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            smooth_heaviside(0.1, 0.0)


class TestControlGate:
    def test_tank_gate_inside(self):
        gate = control_gate(np.array([0.5, 0.5]), TANK_BOUNDS)
        assert_close(gate, [1.0, 1.0], rtol=1e-9)

    def test_tank_gate_at_lower_boundary(self):
        gate = control_gate(np.array([0.05, 0.5]), TANK_BOUNDS)
        assert gate[0] == pytest.approx(0.5, abs=1e-9)

    def test_tank_gate_at_upper_bound(self):
        gate = control_gate(np.array([0.5, 0.95]), TANK_BOUNDS)
        assert gate[1] == pytest.approx(0.5, abs=1e-9)

    def test_unconstrained_channel_is_one(self):
        bounds = (OPEN, (1.1, math.inf, 200.0))
        gate = control_gate(np.array([[123.0, 2.0], [-1e300, 1.1]]), bounds)
        assert np.array_equal(gate[:, 0], [1.0, 1.0])
        assert gate[0, 1] == pytest.approx(1.0, abs=1e-9)
        assert gate[1, 1] == 0.5

    def test_empty_constraints_all_ones(self):
        assert np.array_equal(control_gate(np.array([3.0, -1.0]), ()), [1.0, 1.0])

    def test_saturates_outside(self):
        # 0.3 beyond the bound at rate >= 50: gate below 1e-6
        gate = control_gate(np.array([1.25, -0.25]), TANK_BOUNDS)
        assert np.all(gate <= 1e-6)

    def test_one_bound_per_channel(self):
        with pytest.raises(ValueError, match="one bound per control channel"):
            control_gate(np.array([0.5, 0.5]), TANK_BOUNDS[:1])

    @pytest.mark.parametrize("constraints", [TANK_BOUNDS, (OPEN, (1.1, math.inf, 200.0)), ()])
    def test_batch_rows_equal_single_rows(self, constraints):
        rows = np.array([[0.5, 0.5], [0.05, 1.1], [1.25, -0.25], [123.0, 2.0]])
        batch = control_gate(rows, constraints)
        assert np.array_equal(batch, [control_gate(row, constraints) for row in rows])

    @pytest.mark.parametrize("bounds,terms", [
        (TANK_BOUNDS, [[(1, 0.05, 50.0), (-1, 0.95, 50.0)]] * 2),
        (TOGGLE_BOUNDS, [[(1, 0.1, 200.0)]] * 2 + [[(1, 1.1, 200.0)]] * 2),
        ((OPEN, (0.1, math.inf, 200.0)), [[], [(1, 0.1, 200.0)]]),
    ], ids=["interval", "lower", "open"])
    def test_matches_signed_term_sum(self, bounds, terms):
        # u from far below a lower bound (where the logistic is capped near
        # 1e-308) through both bounds to far above; 1, 5 and 400 rows
        q = len(bounds)
        values = np.concatenate([[-1e300, -50.0, -4.0], np.linspace(-0.5, 1.5, 397)])
        rng = np.random.default_rng(4)
        for rows in (1, 5, 400):
            u = rng.choice(values, size=(rows, q))
            assert np.array_equal(control_gate(u, bounds), signed_term_gate(u, terms))
            assert np.array_equal(control_gate(u[0], bounds), signed_term_gate(u[0], terms))


def scalar_recipe(**given):
    """A scalar `ControlRecipe`: k 1, eta 1, no noise, one unit of time per
    target in steps of 0.01, from x0 = u0 = 0, ungated, with ``given``
    in place of any of these."""
    base = dict(k=1, eta=1.0, sigma=0.0, t_per_target=1.0, step=0.01, x0=(0.0,), u0=(0.0,))
    return ControlRecipe(**{**base, **given})


class TestControlPolicyCfg:
    """`ControlRecipe`, the control policy's one configuration, refuses a
    bad iteration depth, update strength, step, span, noise level, start
    or bound when built."""

    @pytest.mark.parametrize("bound", [(0.9, 0.1, 1.0), (0.5, 0.5, 1.0), (math.nan, 1.0, 1.0),
                                       (0.0, 1.0, 0.0), (0.0, 1.0, -2.0), (0.0, 1.0, math.inf),
                                       (0.0, 1.0, math.nan)])
    def test_bad_bound_rejected_when_built(self, bound):
        with pytest.raises(ValueError, match="lo < hi and a finite rate > 0"):
            scalar_recipe(u0=(0.0, 0.0), bounds=(OPEN, bound))

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected_when_built(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            scalar_recipe(k=k)

    @pytest.mark.parametrize("eta", [0.0, -1.0, math.nan])
    def test_eta_not_positive_rejected_when_built(self, eta):
        with pytest.raises(ValueError, match="eta must be positive"):
            scalar_recipe(eta=eta)

    @pytest.mark.parametrize("field", ["step", "t_per_target"])
    @pytest.mark.parametrize("value", [0.0, -0.01, math.inf, math.nan])
    def test_span_not_finite_positive_rejected_when_built(self, field, value):
        with pytest.raises(ValueError, match="step and t_per_target must be finite and positive"):
            scalar_recipe(**{field: value})

    @pytest.mark.parametrize("sigma", [-0.5, math.inf, math.nan])
    def test_sigma_not_finite_nonnegative_rejected_when_built(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            scalar_recipe(sigma=sigma)

    @pytest.mark.parametrize("given", [{"x0": ()}, {"u0": ()}], ids=["x0", "u0"])
    def test_empty_start_rejected_when_built(self, given):
        with pytest.raises(ValueError, match="x0 and u0 must be non-empty"):
            scalar_recipe(**given)

    @pytest.mark.parametrize("given", [
        {"x0": (0.0, 0.0), "bounds": (OPEN, OPEN)},
        {"u0": (0.0, 0.0), "bounds": (OPEN,)},
        {"u0": (0.0, 0.0), "bounds": (OPEN, OPEN, OPEN)},
    ], ids=["two-for-one", "one-for-two", "three-for-two"])
    def test_bounds_not_fitting_u0_rejected_when_built(self, given):
        with pytest.raises(ValueError, match="need no bounds or one per control channel"):
            scalar_recipe(**given)

    def test_no_bounds_accepted_for_any_control_count(self):
        assert scalar_recipe(u0=(0.0, 0.0)).bounds == ()


class TestIterateTarget:
    def test_k1_equals_single_eval(self):
        fld = make_field(dim=1, control_dim=1, seed=0)
        x, u = np.array([0.4]), np.array([-0.2])
        target_map = lambda x, u: eval_target(fld, x, u)
        assert np.array_equal(iterate_target(target_map, x, u, 1), eval_target(fld, x, u))

    def test_linear_map_geometric_decay(self):
        halve = lambda x, u: x / 2.0
        out = iterate_target(halve, np.array([1.0]), np.array([0.0]), 6)
        assert out[0] == pytest.approx(2.0**-6, rel=1e-15)

    def test_fixed_point_stays(self):
        fld = make_constant_field()  # target identically 0.5
        for k in (1, 3, 10):
            out = iterate_target(lambda x, u: eval_target(fld, x, u), np.array([0.5]),
                                 np.array([0.0]), k)
            assert_close(out, [0.5], rtol=1e-12)


class TestControlObjectiveGrad:
    def test_zero_at_satisfied_fixed_point(self):
        fld = make_constant_field()
        g = control_objective_grad(fld, np.array([0.5]), np.array([0.3]), np.array([0.5]), k=3)
        assert_close(g, [0.0], rtol=1e-12, floor=1e-12)

    def test_linear_oracle_any_k(self):
        G = np.array([[1.5, -0.3], [0.2, 0.8]])
        gmap = lambda x, u: G @ u
        x = np.array([0.0, 0.0])
        u = np.array([0.4, -0.1])
        x_ref = np.array([1.0, 0.5])
        expected = G.T @ (G @ u - x_ref)
        for k in (1, 2, 5):
            grad = control_objective_grad(gmap, x, u, x_ref, k)
            assert_close(grad, expected, rtol=1e-6, label=f"k={k}")

    @pytest.mark.parametrize("system", [benchmarks.BUDWORM, benchmarks.TOGGLE_SWITCH])
    def test_fd_rows_equal_single_rows(self, system):
        # an oracle map takes the finite-difference path, which differentiates
        # each row's own objective: the bits of a 1-row call
        target_map = benchmarks.split_target_fn(system)
        d, q = benchmarks.SYSTEM_DIMS[system]
        rng = np.random.default_rng(2)
        x = rng.uniform(1.0, 3.0, (4, d))
        u = rng.uniform(5.0, 9.0, (4, q))  # budworm: u > x keeps the split defined
        x_ref = rng.uniform(1.0, 3.0, (4, d))
        batch = control_objective_grad(target_map, x, u, x_ref, k=2)
        rows = [control_objective_grad(target_map, *row, k=2) for row in zip(x, u, x_ref)]
        assert batch.shape == (4, q)
        assert np.array_equal(batch, rows)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_fd_on_field(self, k):
        fld = make_field(dim=2, control_dim=3, seed=5, target_bounds=(0.0, 1.0),
                         decay_bounds=(-1.0, 0.0))
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 2)
        u = rng.uniform(-1, 1, 3)
        x_ref = rng.uniform(0, 1, 2)
        grad = control_objective_grad(fld, x, u, x_ref, k)

        def objective(uu):
            r = iterate_target(lambda x, u: eval_target(fld, x, u), x, uu, k) - x_ref
            return 0.5 * float(r @ r)

        assert_close(grad, central_diff_grad(objective, u), rtol=1e-4, floor=1e-8)


def _two_pass_grad(fld, x, u, x_ref, k):
    """The structured-field gradient as it was computed before each level
    kept its cache: a value-only pass per level, then a reverse sweep that
    runs every level's forward again."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x_ref = np.atleast_1d(np.asarray(x_ref, dtype=float))
    levels = [x]
    cur = x
    for _ in range(k):
        cur = eval_target(fld, cur, u)
        levels.append(cur)
    cot = levels[-1] - x_ref
    ugrad = np.zeros_like(u)
    for j in range(k, 0, -1):
        x2d, u2d, single = _batch_xu(fld, levels[j - 1], u)
        c2d = np.asarray(cot, dtype=float).reshape(x2d.shape[0], fld.dim)
        _, cache = _target_forward(fld, x2d, u2d, cached=True)
        gin_grad = nnet.mlp_input_vjp(cache, c2d)[0]
        gx, gu = _target_input_vjp(fld, x2d, gin_grad)
        ugrad += gu[0]
        cot = gx[0]
    return ugrad


# a featurized scalar field and the 2-d two-tanks field, each at a state and
# control inside its domain
CASES = {
    "sym-hysteresis": ([0.3], [-0.2], [0.9]),
    "two-tanks": ([0.4, 0.6], [0.3, 0.7], [0.5, 0.2]),
}


class TestOnePassPerLevel:
    @pytest.mark.parametrize("system", sorted(CASES))
    @pytest.mark.parametrize("k", [1, 3])
    def test_bitwise_equal_to_two_pass(self, system, k):
        fld = benchmarks.make_untrained_field(system, 4)
        x, u, x_ref = (np.array(v) for v in CASES[system])
        grad = control_objective_grad(fld, x, u, x_ref, k)
        assert np.any(grad != 0.0)
        assert np.array_equal(grad, _two_pass_grad(fld, x, u, x_ref, k))

    @pytest.mark.parametrize("system", sorted(CASES))
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_target_net_runs_once_per_level(self, system, k, monkeypatch):
        fld = benchmarks.make_untrained_field(system, 4)
        calls = []
        feature_grads = []

        def counting(name, fn, net):
            def run(*args, **kwargs):
                calls.append((name, net(*args)))
                return fn(*args, **kwargs)
            return run

        # each pass with the weights it runs: a cache's are its first item
        nets = {"mlp_values": lambda layers, xs: layers,
                "mlp_forward": lambda layers, xs, out=None: layers,
                "forward_cached": lambda spec, layers, x2d: (spec, layers),
                "mlp_backward": lambda cache, cot: cache[0],
                "mlp_input_vjp": lambda cache, cot: cache[0]}
        for name, net in nets.items():
            monkeypatch.setattr(nnet, name, counting(name, getattr(nnet, name), net))
        featurize_dx = field.featurize_dx
        monkeypatch.setattr(field, "featurize_dx",
                            lambda *a: feature_grads.append(a) or featurize_dx(*a))
        x, u, x_ref = CASES[system]
        control_objective_grad(fld, x, u, x_ref, k)
        # k cached forwards of the target net, then k input-only reverses of
        # it; no parameter gradient and no decay net
        target = fld.target_layers
        assert [name for name, _ in calls] == ["forward_cached"] * k + ["mlp_input_vjp"] * k
        for name, net in calls:
            if name == "forward_cached":
                spec, net = net
                assert spec == fld.target_spec
            assert net is target
        # only inner levels pass a state gradient on, through the featurizer
        assert len(feature_grads) == (k - 1 if fld.featurizer is not None else 0)

    @pytest.mark.parametrize("system", sorted(CASES))
    @pytest.mark.parametrize("rows", [None, 5])
    def test_target_vjp_replays_cache_bitwise(self, system, rows):
        fld = benchmarks.make_untrained_field(system, 4)
        x, u, _ = (np.array(v) for v in CASES[system])
        if rows is not None:
            rng = np.random.default_rng(0)
            x = x + rng.uniform(-0.1, 0.1, (rows, x.size))
            u = u + rng.uniform(-0.1, 0.1, (rows, u.size))
        cot = np.linspace(-1.0, 1.0, np.size(x)).reshape(np.shape(x))
        value, cache = target_cached(fld, x, u)
        assert np.array_equal(value, eval_target(fld, x, u))
        replayed = target_vjp(fld, cache, cot)
        # a second replay of the same cache, and a fresh cache's, give the same bits
        fresh_cache = target_cached(fld, x, u)[1]
        for again in (target_vjp(fld, cache, cot), target_vjp(fld, fresh_cache, cot)):
            for a, b in zip(again, replayed):
                assert np.array_equal(a, b)
        assert [g.shape for g in replayed] == [np.shape(x), np.shape(u)]
        # the control-only reverse gives the full reverse's u_grad bits
        u_only = target_vjp(fld, cache, cot, state_grad=False)
        assert u_only.shape == np.shape(u)
        assert np.array_equal(u_only, replayed[1])


def steer(plant_rhs, target_map, recipe, refs, seeds=(0,), record_every=1):
    """`feedback_simulate` on the recipe's own `control_schedule` through
    ``refs``, one x_ref per target, which every trial shares."""
    starts, grid = control_schedule(recipe, len(refs))
    targets = np.tile(np.asarray(refs, dtype=float), (len(seeds), 1, 1))
    return feedback_simulate(plant_rhs, target_map, recipe, targets, seeds, starts, grid=grid,
                             record_every=record_every)


class TestFeedbackSimulate:
    def test_stationary_at_satisfied_target(self):
        # plant = learned field, start at the field's own equilibrium for u
        fld = make_constant_field()  # equilibrium at 0.5 for every control
        trace = steer(
            plant_rhs=lambda x, u: eval_velocity(fld, x, u),
            target_map=fld,
            recipe=scalar_recipe(t_per_target=5.0, step=0.025, x0=(0.5,), u0=(0.2,)),  # 200 steps
            refs=[[0.5]],
        )
        assert np.max(np.abs(trace.states - 0.5)) <= 1e-9
        assert np.max(np.abs(trace.controls - 0.2)) <= 1e-9

    def test_drives_scalar_plant_to_target(self):
        # plant dx/dt = u - x; target map g(x,u) = u exactly
        trace = steer(
            plant_rhs=lambda x, u: u - x,
            target_map=lambda x, u: u,
            recipe=scalar_recipe(eta=4.0, t_per_target=20.0),  # targets at t = 0 and 20
            refs=[[1.2], [-0.7]],
        )
        mid = trace.states[trace.times <= 20.0, 0]
        assert abs(mid[-1, 0] - 1.2) <= 1e-3
        assert abs(trace.states[-1, 0, 0] + 0.7) <= 1e-3
        assert trace.target_index[0] == 0 and trace.target_index[-1] == 1

    def test_gate_stalls_control_past_boundary(self):
        # pull toward an unreachable target: the gate saturates within 0.3 of
        # the boundary, so u stalls there and its velocity collapses
        trace = steer(
            plant_rhs=lambda x, u: u - x,
            target_map=lambda x, u: u,
            recipe=scalar_recipe(eta=0.5, t_per_target=20.0, step=0.002, x0=(0.5,), u0=(0.5,),
                          bounds=((0.05, 0.95, 50.0),)),
            refs=[[5.0]],
        )
        assert np.max(trace.controls) < 0.95 + 0.3
        late_steps = np.abs(np.diff(trace.controls[-50:, 0, 0]))
        assert np.max(late_steps) < 1e-5

    @pytest.mark.parametrize("bounds", [(), ((0.05, 0.95, 50.0),)])
    def test_gate_runs_only_for_bounded_policies(self, bounds, monkeypatch):
        gates = []
        monkeypatch.setattr(control, "control_gate",
                            lambda *a: gates.append(a) or control_gate(*a))
        policy = scalar_recipe(step=0.04, x0=(0.5,), u0=(0.5,), bounds=bounds)
        grid = control_schedule(policy, 1)[1]
        assert grid.n_steps == 25
        steer(lambda x, u: u - x, lambda x, u: u, policy, [[0.8]], seeds=[0, 1])
        assert len(gates) == (grid.n_steps if bounds else 0)

    def test_noise_reproducible_per_seed(self):
        args = dict(
            plant_rhs=lambda x, u: u - x,
            target_map=lambda x, u: u,
            recipe=scalar_recipe(eta=2.0, sigma=0.05, t_per_target=5.0, x0=(0.1,)),
            refs=[[0.8]],
        )
        a = steer(seeds=[[3, 1]], **args)
        b = steer(seeds=[[3, 1]], **args)
        c = steer(seeds=[[3, 2]], **args)
        assert np.array_equal(a.states, b.states)
        assert not np.array_equal(a.states, c.states)

    def test_record_every_thins_output(self):
        trace = steer(lambda x, u: -x, lambda x, u: u, scalar_recipe(x0=(1.0,)), [[0.0]],
                      record_every=10)  # 100 steps
        assert len(trace.times) == 11
        assert trace.times[-1] == 1.0

    @staticmethod
    def one_seed(targets, starts):
        return feedback_simulate(lambda x, u: -x, lambda x, u: u, scalar_recipe(), targets, [0],
                                 starts, grid=TimeGrid(0.0, 1.0, 10))

    @pytest.mark.parametrize("shape", [(2, 1, 1), (1, 2, 1), (1, 1, 2), (1, 1)],
                             ids=["trials", "targets", "dims", "no-target-axis"])
    def test_targets_of_another_shape_are_refused(self, shape):
        # one seed, one start and a scalar state take a (1, 1, 1) array
        with pytest.raises(ValueError, match=r"targets must be \(trials, targets, d\) = "
                                             r"\(1, 1, 1\), got"):
            self.one_seed(np.zeros(shape), [0.0])

    def test_no_target_is_refused(self):
        with pytest.raises(ValueError, match="need at least one target"):
            self.one_seed(np.zeros((1, 0, 1)), [])

    def test_targets_out_of_time_order_are_refused(self):
        with pytest.raises(ValueError, match="targets must be ordered in time"):
            self.one_seed(np.zeros((1, 2, 1)), [0.5, 0.0])

    @pytest.mark.parametrize("starts", [[0.0], [0.0, 0.5, 0.5, 1.0], [0.3, 0.7], [0.0, 2.0]])
    def test_active_targets_match_the_step_rule(self, starts):
        # the incremental rule: advance while the next target has started
        times = TimeGrid(0.0, 1.0, 40).times()
        want, active = [], 0
        for t in times:
            while active + 1 < len(starts) and starts[active + 1] <= t:
                active += 1
            want.append(active)
        assert active_targets(starts, times).tolist() == want


class TestLinearTheory:
    def test_minnorm_identity(self):
        prob = LinearControlProblem(np.eye(3), np.array([1.0, -2.0, 0.5]))
        assert_close(linear_minnorm(prob), [1.0, -2.0, 0.5], rtol=1e-12)

    def test_minnorm_underdetermined(self):
        prob = LinearControlProblem(np.array([[1.0, 0.0]]), np.array([2.0]))
        assert_close(linear_minnorm(prob), [2.0, 0.0], rtol=1e-12)

    def test_minnorm_zero_matrix(self):
        prob = LinearControlProblem(np.zeros((2, 2)), np.array([1.0, 1.0]))
        assert_close(linear_minnorm(prob), [0.0, 0.0], rtol=1e-12)

    def test_ridge_identity(self):
        prob = LinearControlProblem(np.eye(2), np.array([1.0, 3.0]), lam=1.0)
        assert_close(ridge_solve(prob), [0.5, 1.5], rtol=1e-12)

    def test_ridge_limit_matches_pinv(self):
        rng = np.random.default_rng(2)
        G = rng.normal(size=(3, 2))
        G[:, 1] = 2 * G[:, 0]  # rank deficient
        x_ref = rng.normal(size=3)
        mn = linear_minnorm(LinearControlProblem(G, x_ref))
        rr = ridge_solve(LinearControlProblem(G, x_ref, lam=1e-10))
        assert np.linalg.norm(mn - rr) <= 1e-6

    def test_ridge_shrinks_to_zero(self):
        prob = LinearControlProblem(np.eye(2), np.array([1.0, 1.0]), lam=1e9)
        assert np.linalg.norm(ridge_solve(prob)) <= 1e-8

    def test_gd_identity_converges_in_one_step(self):
        prob = LinearControlProblem(np.eye(2), np.array([2.0, -1.0]))
        eta, rho = optimal_gd_step(np.eye(2))
        assert eta == pytest.approx(1.0) and rho == pytest.approx(0.0)
        res = gd_linear(prob, np.array([5.0, 5.0]), eta, 3)
        assert res.errors[1] <= 1e-14

    def test_gd_contraction_matches_theory(self):
        # two-point spectrum makes the per-step ratio exactly rho; compare
        # only while the error is far above the floating-point floor
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = int(rng.integers(2, 5))
            d = q + int(rng.integers(0, 3))
            rho_want = rng.uniform(0.1, 0.9)
            smin = rng.uniform(0.5, 1.5)
            smax = smin * np.sqrt((1 + rho_want) / (1 - rho_want))
            sig = np.concatenate([[smax, smin], rng.choice([smax, smin], q - 2)])
            U, _ = np.linalg.qr(rng.normal(size=(d, q)))
            V, _ = np.linalg.qr(rng.normal(size=(q, q)))
            G = U @ np.diag(sig) @ V.T
            prob = LinearControlProblem(G, rng.normal(size=d))
            eta, rho = optimal_gd_step(G)
            assert abs(rho - rho_want) < 1e-9
            res = gd_linear(prob, rng.normal(size=q), eta, 60)
            usable = res.errors[1:] > 1e-8 * res.errors[0]
            ratios = (res.errors[1:] / res.errors[:-1])[usable]
            assert len(ratios) >= 3
            assert np.all(np.abs(ratios - rho) <= 1e-6)

    def test_gd_divergence_flagged(self):
        G = np.array([[2.0]])
        prob = LinearControlProblem(G, np.array([1.0]))
        eta_max = 2.0 / 4.0  # 2/sigma_max^2
        res = gd_linear(prob, np.array([10.0]), eta_max * 1.1, 2000)
        assert res.diverged

    def test_gradient_flow_scalar_closed_form(self):
        g = 1.7
        prob = LinearControlProblem(np.array([[g]]), np.array([2.0]))
        u_star = 2.0 / g
        eta = 0.8
        times, us = gradient_flow_linear(prob, np.array([0.0]), eta, TimeGrid(0, 2, 400))
        exact = u_star + np.exp(-eta * g * g * times) * (0.0 - u_star)
        assert np.max(np.abs(us[:, 0] - exact)) <= 1e-8

    def test_gradient_flow_exponential_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            q = int(rng.integers(1, 4))
            d = q + int(rng.integers(0, 2))
            G = rng.normal(size=(d, q)) + np.eye(d, q)
            sig = np.linalg.svd(G, compute_uv=False)
            if sig[-1] < 0.3:
                continue
            prob = LinearControlProblem(G, rng.normal(size=d))
            u0 = rng.normal(size=q)
            u_star = linear_minnorm(prob)
            eta = 0.5
            times, us = gradient_flow_linear(prob, u0, eta, TimeGrid(0, 3, 3000))
            err = np.linalg.norm(us - u_star, axis=1)
            bound = np.exp(-eta * sig[-1] ** 2 * times) * err[0]
            assert np.all(err <= bound * (1 + 1e-9) + 1e-12)

    def test_gd_stationary_at_start(self):
        prob = LinearControlProblem(np.eye(2), np.array([1.0, 1.0]))
        res = gd_linear(prob, np.array([1.0, 1.0]), 0.5, 5)
        assert np.all(res.errors <= 1e-15)
