import math
from dataclasses import replace

import numpy as np
import pytest

from stabledyn.analysis import (
    _BLOCK_ROWS,
    MARGINAL,
    STABLE,
    UNSTABLE,
    bifurcation_sweep,
    central_diff,
    find_equilibria_nd,
    iqr,
    nrmse,
    summarize_targets,
)
from stabledyn.benchmarks import (
    BUDWORM,
    SYM_HYSTERESIS,
    TWO_TANKS,
    analytic_split,
    default_protocol,
    default_train_recipe,
    gen_dataset,
    make_untrained_field,
    system_rhs,
)
from stabledyn.field import eval_decay, eval_velocity, read_checkpoint, residual
from stabledyn.training import train
from theory import classify_stability, contraction_bound
from util import CHECKPOINT, assert_close, roots_at

TIP = 2.0 / np.sqrt(27.0)


def hysteresis_split_residual(lam):
    # x - (x + lam)/x^2; blows up at x=0 (the scan discards that cell)
    return lambda x: x - (x + lam) / x**2


def hysteresis_rhs_residual(lam):
    return lambda x: x**3 - x - lam


def hysteresis_velocity(lam):
    return lambda x: lam + x - x**3


def budworm_residual(kappa, r=0.56):
    return lambda x: x - (r / kappa) * (1.0 + x * x) * (kappa - x)


def budworm_velocity(kappa, r=0.56):
    return lambda x: r * x * (1.0 - x / kappa) - x * x / (1.0 + x * x)


def checkpoint_fns():
    """(residual_of, velocity_of) of the trained sym-hysteresis field; both
    take a control and a state of one shape, scalar or 1-d."""
    fld = read_checkpoint(CHECKPOINT)[0]

    def of(fn):
        return lambda c: (lambda x: fn(fld, np.reshape(x, (-1, 1)),
                                       np.reshape(c, (-1, 1))).reshape(np.shape(x)))

    return of(residual), of(eval_velocity)


class TestFindEquilibria1d:
    def test_hysteresis_split_residual_skips_blowup(self):
        roots = roots_at(hysteresis_split_residual(0.0), (-2, 2), n_scan=400)
        assert_close(roots, [-1.0, 1.0], rtol=1e-9)

    def test_hysteresis_rhs_residual_finds_origin(self):
        roots = roots_at(hysteresis_rhs_residual(0.0), (-2, 2), n_scan=400)
        assert_close(roots, [-1.0, 0.0, 1.0], rtol=1e-9, floor=1e-11)

    def test_single_root_cubic(self):
        roots = roots_at(hysteresis_rhs_residual(1.0), (-2, 2), n_scan=400)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1.3247179572447454, abs=1e-9)

    def test_positive_residual_empty(self):
        roots = roots_at(lambda x: x * x + 1.0, (-3, 3))
        assert len(roots) == 0

    def test_root_magnitudes_below_tol(self):
        f = hysteresis_rhs_residual(0.3)
        for r in roots_at(f, (-2, 2)):
            assert abs(f(r)) <= 1e-10


@pytest.fixture(scope="module")
def tanks_field():
    """A two-tanks field after one epoch of its recipe on 3-sample data."""
    data = gen_dataset(TWO_TANKS, default_protocol(TWO_TANKS, samples_per_traj=3))
    cfg = replace(default_train_recipe(TWO_TANKS)[0], epochs=1)
    return train(make_untrained_field(TWO_TANKS, 0), data.trajectories, cfg).field


# the decay of a field whose velocity is the negated residual, as the
# oracle's: -1 in every coordinate
UNIT_DECAY = lambda x: -np.ones_like(x)


class TestFindEquilibriaNd:
    @staticmethod
    def toggle_residual(u):
        def res(x):
            _, g = analytic_split("toggle-switch", np.asarray(x, dtype=float), u)
            return np.asarray(x, dtype=float) - g

        return res

    def test_toggle_bistable_three_roots(self):
        u = np.array([5.0, 5.0, 2.0, 2.0])
        roots, labels, _, failed = find_equilibria_nd(self.toggle_residual(u), UNIT_DECAY,
                                                      [[0, 6], [0, 6]], starts_per_axis=7)
        assert len(roots) == 3
        # grid-scan oracle on the nullclines: x1 = a/(1+x2^2), x2 = a/(1+x1^2)
        xs = np.linspace(0, 6, 2001)
        x2_of_x1 = 5.0 / (1.0 + xs**2)
        mismatch = np.abs(xs - 5.0 / (1.0 + x2_of_x1**2))
        sign_changes = np.sum(np.diff(np.sign(xs - 5.0 / (1.0 + x2_of_x1**2))) != 0)
        assert sign_changes == 3  # independent count of intersections
        # two stable states around the saddle between them
        assert labels.tolist() == [STABLE, UNSTABLE, STABLE]

    def test_toggle_monostable_one_root(self):
        u = np.array([0.1, 0.1, 2.0, 2.0])
        roots, _, _, _ = find_equilibria_nd(self.toggle_residual(u), UNIT_DECAY,
                                            [[0, 6], [0, 6]], starts_per_axis=5)
        assert len(roots) == 1

    def test_constant_target_unique_root(self):
        res = lambda x: np.asarray(x) - np.array([0.3, 0.7])
        roots, labels, _, failed = find_equilibria_nd(res, UNIT_DECAY, [[0, 1], [0, 1]],
                                                      starts_per_axis=4)
        assert failed == 0
        assert len(roots) == 1
        assert_close(roots[0], [0.3, 0.7], rtol=1e-9)
        assert labels.tolist() == [STABLE]  # velocity = -r pulls x to the target

    def test_residuals_below_tolerance(self):
        u = np.array([3.0, 2.0, 2.0, 3.0])
        res = self.toggle_residual(u)
        roots, _, norms, _ = find_equilibria_nd(res, UNIT_DECAY, [[0, 6], [0, 6]],
                                                starts_per_axis=6)
        for r, norm in zip(roots, norms):
            assert np.linalg.norm(res(r)) <= 1e-8
            # the norm of Newton's own final residual is the residual at the root
            assert norm == np.linalg.norm(res(r))

    @pytest.mark.parametrize("decay,want", [((-1.0, -1.0), STABLE), ((-1.0, -4.0), UNSTABLE)])
    def test_decay_magnitudes_enter_the_label(self, decay, want):
        # r = A x: diag(decay) A has trace -0.5, det 0.5 at decay (-1, -1),
        # and trace 1, det 2 at (-1, -4); both decays are negative, so their
        # signs alone cannot tell the two apart
        A = np.array([[1.0, 1.0], [-1.0, -0.5]])
        roots, labels, norms, failed = find_equilibria_nd(
            lambda x: A @ x, lambda x: np.array(decay), [[-1, 1], [-1, 1]], starts_per_axis=3)
        assert failed == 0
        assert roots.shape == (1, 2) and np.linalg.norm(A @ roots[0]) <= 1e-8
        assert labels.tolist() == [want]
        assert norms.tolist() == [np.linalg.norm(A @ roots[0])]

    @pytest.mark.parametrize("control", [(5.0, 5.0, 2.0, 2.0), (2.5, 2.5, 3.0, 3.0),
                                         (3.0, 3.0, 1.1, 1.1)])
    def test_labels_match_the_velocity_jacobian_toggle_oracle(self, control):
        u = np.array(control)
        roots, labels, _, _ = find_equilibria_nd(lambda x: -system_rhs("toggle-switch", x, u),
                                                 UNIT_DECAY, [[0, 6], [0, 6]])
        assert len(roots) >= 1
        assert labels.tolist() == [
            classify_stability(lambda x: system_rhs("toggle-switch", x, u), r) for r in roots]

    @pytest.mark.parametrize("control", [(0.5, 0.5), (0.2, 0.8), (0.9, 0.1)])
    def test_labels_match_the_velocity_jacobian_learned_tanks(self, tanks_field, control):
        fld = tanks_field
        u = np.array(control)
        roots, labels, _, _ = find_equilibria_nd(lambda x: residual(fld, x, u),
                                                 lambda x: eval_decay(fld, x), fld.domain)
        assert len(roots) >= 1
        assert labels.tolist() == [
            classify_stability(lambda x: eval_velocity(fld, x, u), r) for r in roots]


class TestClassifyStability:
    def test_hysteresis_origin_unstable(self):
        vel = lambda x: np.atleast_1d(hysteresis_velocity(0.0)(x[0]))
        assert classify_stability(vel, [0.0]) == UNSTABLE

    def test_hysteresis_unit_stable(self):
        vel = lambda x: np.atleast_1d(hysteresis_velocity(0.0)(x[0]))
        assert classify_stability(vel, [1.0]) == STABLE

    def test_lemma_consistency_with_target_slope(self):
        # at x*=1, lam=0 the split target has slope (-x-2*lam)/x^3 = -1 < 1,
        # matching the negative velocity slope (exponentially stable)
        lam = 0.0
        x_star = 1.0
        g = lambda x: (x + lam) / x**2
        h = 1e-6
        slope = (g(x_star + h) - g(x_star - h)) / (2 * h)
        assert slope == pytest.approx(-1.0, abs=1e-6)
        assert slope < 1.0
        vel = lambda x: np.atleast_1d(hysteresis_velocity(lam)(x[0]))
        assert classify_stability(vel, [x_star]) == STABLE

    def test_marginal_detected(self):
        vel = lambda x: np.atleast_1d(np.zeros(1))
        assert classify_stability(vel, [0.2]) == MARGINAL

    def test_2d_saddle_unstable(self):
        vel = lambda x: np.array([x[0], -x[1]])
        assert classify_stability(vel, [0.0, 0.0]) == UNSTABLE

    def test_2d_node_stable(self):
        vel = lambda x: np.array([-2 * x[0], -x[1] + 0.5 * x[0]])
        assert classify_stability(vel, [0.0, 0.0]) == STABLE

    def test_2d_spiral_stable(self):
        vel = lambda x: np.array([-0.1 * x[0] + x[1], -x[0] - 0.1 * x[1]])
        assert classify_stability(vel, [0.0, 0.0]) == STABLE

    @pytest.mark.parametrize("diag,want", [((-1.0, -2.0, -3.0), STABLE),
                                           ((-1.0, -2.0, 0.5), UNSTABLE)])
    def test_3d_linear_field(self, diag, want):
        # the eigenvalue rule holds in any dimension
        vel = lambda x: np.asarray(diag) * x
        assert classify_stability(vel, [0.0, 0.0, 0.0]) == want

    def test_rejects_non_equilibrium(self):
        vel = lambda x: np.atleast_1d(hysteresis_velocity(0.0)(x[0]))
        with pytest.raises(ValueError):
            classify_stability(vel, [0.5])


class TestCentralDiff:
    @pytest.mark.parametrize("d", [1, 2])
    def test_affine_map_gives_its_matrix(self, d):
        rng = np.random.default_rng(d)
        A, b = rng.normal(size=(d, d)), rng.normal(size=d)
        jac = central_diff(lambda x: x @ A.T + b, rng.normal(size=d))
        assert jac.shape == (d, d)
        assert np.max(np.abs(jac - A)) <= 1e-9

    @pytest.mark.parametrize("d", [1, 2])
    def test_batch_rows_are_single_point_calls(self, d):
        # elementwise arithmetic only, so a row's bits cannot depend on the batch
        fn = lambda x: x * x * x[..., ::-1] - 1.0 / (1.0 + x * x)
        xs = np.random.default_rng(10 + d).normal(size=(7, d))
        batch = central_diff(fn, xs)
        assert batch.shape == (7, d, d)
        assert np.array_equal(batch, np.stack([central_diff(fn, x) for x in xs]))

    @pytest.mark.parametrize("d", [1, 2])
    def test_scalar_fn_gives_gradient(self, d):
        xs = np.random.default_rng(20 + d).normal(size=(4, 3, d))
        grad = central_diff(lambda x: 0.5 * np.sum(x * x, axis=-1), xs)
        assert grad.shape == (4, 3, d)
        assert np.max(np.abs(grad - xs)) <= 1e-8


class TestBifurcationSweep:
    def test_hysteresis_oracle_tipping(self):
        grid = np.linspace(-1, 1, 401)
        diagram = bifurcation_sweep(hysteresis_rhs_residual, grid, (-2, 2))
        cell = grid[1] - grid[0]
        assert len(diagram.tipping_points) == 2
        assert abs(diagram.tipping_points[0] + TIP) <= cell
        assert abs(diagram.tipping_points[1] - TIP) <= cell
        # fold consistency: counts change 1 <-> 3 at each tipping point
        assert set(diagram.counts) == {1, 3}

    def test_budworm_oracle_tipping(self):
        grid = np.linspace(4.45, 11.99, 200)
        diagram = bifurcation_sweep(budworm_residual, grid, (0.1, 10.0))
        assert len(diagram.tipping_points) == 2
        assert abs(diagram.tipping_points[0] - 6.446) <= 0.05
        assert abs(diagram.tipping_points[1] - 9.934) <= 0.05

    def test_monostable_no_tipping(self):
        grid = np.linspace(-1, 1, 41)
        diagram = bifurcation_sweep(lambda c: (lambda x: x - c), grid, (-3, 3))
        assert diagram.tipping_points == []
        assert np.all(diagram.counts == 1)

    def test_lemma_equivalence_across_sweep(self):
        # for the oracle split: stable <=> d(target)/dx < 1 at the root
        grid = np.linspace(-0.9, 0.9, 41)
        h = 1e-6
        diagram = bifurcation_sweep(hysteresis_rhs_residual, grid, (-2, 2))
        for lam, root in zip(diagram.u, diagram.x_star):
            if abs(root) < 1e-3:
                continue  # split target undefined at 0
            vel = hysteresis_velocity(lam)
            g = lambda x: (x + lam) / x**2
            slope_g = (g(root + h) - g(root - h)) / (2 * h)
            slope_F = (vel(root + h) - vel(root - h)) / (2 * h)
            assert (slope_F < 0) == (slope_g < 1)

    def test_rows_sorted(self):
        grid = np.linspace(-1, 1, 21)
        diagram = bifurcation_sweep(hysteresis_rhs_residual, grid, (-2, 2))
        rows = list(zip(diagram.u.tolist(), diagram.x_star.tolist()))
        assert rows == sorted(rows)
        assert len(set(rows)) == len(rows) == diagram.counts.sum()
        assert set(diagram.stability) <= {STABLE, UNSTABLE, MARGINAL}


def reference_sweep(residual_of, velocity_of, controls, interval, n_scan=400,
                    tol=1e-10, dedup=1e-6):
    """Per-control scan plus bisection with one scalar residual call per x:
    the reference the batched engine must reproduce. Returns (counts, roots,
    stability labels, tipping points), roots and labels flat in control
    then state order."""
    xs = np.linspace(interval[0], interval[1], n_scan + 1)
    counts, all_roots, labels = [], [], []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for c in controls:
            res, vel = residual_of(c), velocity_of(c)
            vals = [float(res(x)) for x in xs]
            roots = [x for x, v in zip(xs, vals) if v == 0.0]
            for i in range(n_scan):
                a, b, fa, fb = xs[i], xs[i + 1], vals[i], vals[i + 1]
                if fa == 0.0 or fb == 0.0 or np.sign(fa) == np.sign(fb):
                    continue
                for _ in range(200):
                    m = 0.5 * (a + b)
                    fm = float(res(m))
                    if fm == 0.0 or (b - a) < 1e-15 * max(1.0, abs(m)):
                        break
                    if np.sign(fm) == np.sign(fa):
                        a, fa = m, fm
                    else:
                        b, fb = m, fm
                m = 0.5 * (a + b)
                if abs(float(res(m))) <= tol:
                    roots.append(m)
            roots.sort()
            kept = []
            for r in roots:
                if not kept or abs(r - kept[-1]) > dedup:
                    kept.append(r)
            counts.append(len(kept))
            all_roots.extend(kept)
            labels.extend(
                classify_stability(lambda xv: np.atleast_1d(vel(xv[0])), [r]) for r in kept
            )
    tipping = [float(0.5 * (controls[i] + controls[i + 1]))
               for i in range(len(controls) - 1) if counts[i] != counts[i + 1]]
    return counts, all_roots, labels, tipping


# the default scan grid of (-2, 2): controls taken from it put every root
# of the residuals below on a scan point, an exact zero between neighbours
SCAN = np.linspace(-2, 2, 401)


class TestSweepEngine:
    @pytest.mark.parametrize("residual_of, velocity_of, grid, interval", [
        (hysteresis_rhs_residual, hysteresis_velocity, np.linspace(-1, 1, 401), (-2, 2)),
        (budworm_residual, budworm_velocity, np.linspace(4.45, 11.99, 401), (0.1, 10.0)),
        (*checkpoint_fns(), np.linspace(-1, 1, 41), (-2, 2)),
        # both ends included: a neighbour past the end counts as 0
        (lambda c: (lambda x: x - c), lambda c: (lambda x: c - x), SCAN[::40], (-2, 2)),
        (lambda c: (lambda x: c - x), lambda c: (lambda x: x - c), SCAN[::40], (-2, 2)),
        (lambda c: (lambda x: (x - c) ** 2), lambda c: (lambda x: -(x - c) ** 2),
         SCAN[20:-1:40], (-2, 2)),
    ], ids=["hysteresis", "budworm", "learned-field", "grid-zero-rising",
            "grid-zero-falling", "grid-zero-tangent"])
    def test_matches_scalar_reference(self, residual_of, velocity_of, grid, interval):
        # the sweep labels roots from the residual's sign change over each
        # bracket, the reference from the velocity's central-difference
        # slope: they agree when velocity = decay * residual, decay < 0
        counts, roots, labels, tipping = reference_sweep(residual_of, velocity_of,
                                                         grid, interval)
        diagram = bifurcation_sweep(residual_of, grid, interval)
        assert diagram.counts.tolist() == counts
        assert diagram.stability.tolist() == labels
        assert diagram.tipping_points == tipping
        assert np.max(np.abs(diagram.x_star - np.array(roots))) <= 1e-12
        assert diagram.u.tolist() == np.repeat(grid, counts).tolist()

    @pytest.mark.parametrize("residual_of", [
        lambda c: (lambda x: x - c),
        hysteresis_rhs_residual,
    ], ids=["one-root", "up-to-three-roots"])
    def test_calls_bounded_by_scan_blocks_and_bisection_depth(self, residual_of):
        grid = np.linspace(-1, 1, 401)
        n_scan = 400
        rows = []

        def counted(c):
            fn = residual_of(c)

            def call(x):
                rows.append(len(x))
                return fn(x)

            return call

        diagram = bifurcation_sweep(counted, grid, (-2, 2), n_scan=n_scan)
        scan_blocks = math.ceil(len(grid) / (_BLOCK_ROWS // (n_scan + 1)))
        assert len(diagram.x_star) <= _BLOCK_ROWS  # every bracket fits one call
        # one call per scan block, one per bisection step (at most 200), one
        # final residual check: independent of how many brackets there are;
        # the labels come from the brackets, so no call follows
        assert len(rows) <= scan_blocks + 200 + 1
        assert max(rows) <= _BLOCK_ROWS
        assert len(diagram.x_star) >= len(grid)

    def test_split_residual_drops_blowup_cell(self):
        # x - (x + c)/x^2 has the cubic's roots except x = 0, where it blows
        # up (c = 0 changes sign across the pole and is 0/0 on the grid point)
        grid = np.array([-0.2, 0.0, 0.2])
        split = bifurcation_sweep(hysteresis_split_residual, grid, (-2, 2))
        cubic = bifurcation_sweep(hysteresis_rhs_residual, grid, (-2, 2))
        assert split.counts.tolist() == [3, 2, 3]
        expected = np.abs(cubic.x_star) > 1e-3
        assert split.u.tolist() == cubic.u[expected].tolist()
        assert split.stability.tolist() == cubic.stability[expected].tolist()
        assert_close(split.x_star, cubic.x_star[expected], rtol=1e-9)


class TestMetrics:
    def test_nrmse_zero_at_target(self):
        win = np.full((10, 2), 3.0)
        assert_close(nrmse(win, [3.0, 3.0], [1.0, 2.0]), [0.0, 0.0], rtol=1e-12)

    def test_nrmse_constant_offset(self):
        win = np.full((10, 1), 1.5)
        assert_close(nrmse(win, [1.0], [2.0]), [0.25], rtol=1e-12)

    def test_nrmse_window_reparameterization_invariant(self):
        rng = np.random.default_rng(0)
        win = rng.normal(size=(50, 1))
        a = nrmse(win, [0.0], [1.0])
        b = nrmse(win[::-1], [0.0], [1.0])  # same samples, reversed order
        assert_close(a, b, rtol=1e-12)

    def test_nrmse_rejects_bad_magnitude(self):
        with pytest.raises(ValueError):
            nrmse(np.ones((3, 1)), [0.0], [0.0])

    def test_iqr_uniform_grid(self):
        assert iqr(np.arange(101.0)) == pytest.approx(50.0)

    def test_iqr_equal_samples(self):
        assert iqr(np.full(9, 2.2)) == 0.0

    def test_iqr_linear_interpolation_convention(self):
        assert iqr([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.5)

    def test_summarize_targets(self):
        # one trial through three targets of a scalar system: (1, 3, 1)
        doc = summarize_targets(np.array([[[0.01], [0.04], [0.1]]]), [3.0], "range")
        assert doc["within_5pct"][0] == pytest.approx(2.0 / 3.0)
        assert doc["within_2pct"][0] == pytest.approx(1.0 / 3.0)
        assert doc["magnitude_definition"] == "range"


class TestContractionBound:
    def test_linear_half_map(self):
        L, is_contraction = contraction_bound(lambda x: 0.5 * x + 1.0, 2.0, 0.5)
        assert L == pytest.approx(0.5, abs=1e-6)
        assert is_contraction

    def test_constant_map(self):
        L, is_contraction = contraction_bound(lambda x: 0.7, 0.0, 1.0)
        assert L == pytest.approx(0.0, abs=1e-9)
        assert is_contraction

    def test_remark_counterexample_regime(self):
        # hysteresis at lam=1: ODE-stable equilibrium, yet |d target/dx| > 1
        lam = 1.0
        x_star = 1.3247179572447454
        g = lambda x: (x + lam) / x**2
        L, is_contraction = contraction_bound(g, x_star, 0.05)
        assert L >= 1.43 - 0.01
        assert not is_contraction
        vel = lambda x: np.atleast_1d(lam + x[0] - x[0] ** 3)
        assert classify_stability(vel, [x_star]) == STABLE
