import math

import numpy as np
import pytest

from stabledyn.analysis import (
    _BLOCK_ROWS,
    MARGINAL,
    STABLE,
    UNSTABLE,
    bifurcation_sweep,
    classify_stability,
    contraction_bound,
    find_equilibria_1d,
    find_equilibria_nd,
    iqr,
    nrmse,
    summarize_targets,
    sweep_to_rows,
)
from stabledyn.benchmarks import BUDWORM, SYM_HYSTERESIS, analytic_split, system_rhs
from stabledyn.field import eval_velocity, load_field, residual
from util import CHECKPOINT, assert_close

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
    fld = load_field(CHECKPOINT)

    def of(fn):
        return lambda c: (lambda x: fn(fld, np.reshape(x, (-1, 1)),
                                       np.reshape(c, (-1, 1))).reshape(np.shape(x)))

    return of(residual), of(eval_velocity)


class TestFindEquilibria1d:
    def test_hysteresis_split_residual_skips_blowup(self):
        roots = find_equilibria_1d(hysteresis_split_residual(0.0), (-2, 2), n_scan=400)
        assert_close(roots, [-1.0, 1.0], rtol=1e-9)

    def test_hysteresis_rhs_residual_finds_origin(self):
        roots = find_equilibria_1d(hysteresis_rhs_residual(0.0), (-2, 2), n_scan=400)
        assert_close(roots, [-1.0, 0.0, 1.0], rtol=1e-9, floor=1e-11)

    def test_single_root_cubic(self):
        roots = find_equilibria_1d(hysteresis_rhs_residual(1.0), (-2, 2), n_scan=400)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1.3247179572447454, abs=1e-9)

    def test_positive_residual_empty(self):
        roots = find_equilibria_1d(lambda x: x * x + 1.0, (-3, 3))
        assert len(roots) == 0

    def test_root_magnitudes_below_tol(self):
        f = hysteresis_rhs_residual(0.3)
        for r in find_equilibria_1d(f, (-2, 2)):
            assert abs(f(r)) <= 1e-10


class TestFindEquilibriaNd:
    @staticmethod
    def toggle_residual(u):
        def res(x):
            _, g = analytic_split("toggle-switch", np.asarray(x, dtype=float), u)
            return np.asarray(x, dtype=float) - g

        return res

    def test_toggle_bistable_three_roots(self):
        u = np.array([5.0, 5.0, 2.0, 2.0])
        roots, failed = find_equilibria_nd(self.toggle_residual(u), [[0, 6], [0, 6]],
                                           starts_per_axis=7)
        assert len(roots) == 3
        # grid-scan oracle on the nullclines: x1 = a/(1+x2^2), x2 = a/(1+x1^2)
        xs = np.linspace(0, 6, 2001)
        x2_of_x1 = 5.0 / (1.0 + xs**2)
        mismatch = np.abs(xs - 5.0 / (1.0 + x2_of_x1**2))
        sign_changes = np.sum(np.diff(np.sign(xs - 5.0 / (1.0 + x2_of_x1**2))) != 0)
        assert sign_changes == 3  # independent count of intersections

    def test_toggle_monostable_one_root(self):
        u = np.array([0.1, 0.1, 2.0, 2.0])
        roots, _ = find_equilibria_nd(self.toggle_residual(u), [[0, 6], [0, 6]],
                                      starts_per_axis=5)
        assert len(roots) == 1

    def test_constant_target_unique_root(self):
        res = lambda x: np.asarray(x) - np.array([0.3, 0.7])
        roots, failed = find_equilibria_nd(res, [[0, 1], [0, 1]], starts_per_axis=4)
        assert failed == 0
        assert len(roots) == 1
        assert_close(roots[0], [0.3, 0.7], rtol=1e-9)

    def test_residuals_below_tolerance(self):
        u = np.array([3.0, 2.0, 2.0, 3.0])
        res = self.toggle_residual(u)
        roots, _ = find_equilibria_nd(res, [[0, 6], [0, 6]], starts_per_axis=6)
        for r in roots:
            assert np.linalg.norm(res(r)) <= 1e-8


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

    def test_rejects_non_equilibrium(self):
        vel = lambda x: np.atleast_1d(hysteresis_velocity(0.0)(x[0]))
        with pytest.raises(ValueError):
            classify_stability(vel, [0.5])


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
        for lam in grid:
            vel = hysteresis_velocity(lam)
            for root in find_equilibria_1d(hysteresis_rhs_residual(lam), (-2, 2)):
                if abs(root) < 1e-3:
                    continue  # split target undefined at 0
                g = lambda x: (x + lam) / x**2
                slope_g = (g(root + h) - g(root - h)) / (2 * h)
                slope_F = (vel(root + h) - vel(root - h)) / (2 * h)
                assert (slope_F < 0) == (slope_g < 1)

    def test_rows_sorted(self):
        grid = np.linspace(-1, 1, 21)
        diagram = bifurcation_sweep(hysteresis_rhs_residual, grid, (-2, 2))
        rows = sweep_to_rows(diagram)
        assert rows == sorted(rows, key=lambda r: (r[0], r[1]))
        assert all(r[-1] in (STABLE, UNSTABLE, MARGINAL) for r in rows)


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


class TestSweepEngine:
    @pytest.mark.parametrize("residual_of, velocity_of, grid, interval", [
        (hysteresis_rhs_residual, hysteresis_velocity, np.linspace(-1, 1, 401), (-2, 2)),
        (budworm_residual, budworm_velocity, np.linspace(4.45, 11.99, 401), (0.1, 10.0)),
        (*checkpoint_fns(), np.linspace(-1, 1, 41), (-2, 2)),
    ], ids=["hysteresis", "budworm", "learned-field"])
    def test_matches_scalar_reference(self, residual_of, velocity_of, grid, interval):
        # the sweep labels roots from the residual alone, the reference from
        # the velocity: they agree when velocity = decay * residual, decay < 0
        counts, roots, labels, tipping = reference_sweep(residual_of, velocity_of,
                                                         grid, interval)
        diagram = bifurcation_sweep(residual_of, grid, interval)
        assert diagram.counts.tolist() == counts
        assert [p.stability for p in diagram.points] == labels
        assert diagram.tipping_points == tipping
        got = np.array([p.x_star[0] for p in diagram.points])
        assert np.max(np.abs(got - np.array(roots))) <= 1e-12
        assert [p.u[0] for p in diagram.points] == np.repeat(grid, counts).tolist()

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
        assert len(diagram.points) <= _BLOCK_ROWS  # every bracket fits one call
        # one call per scan block, one per bisection step (at most 200), one
        # final residual check: independent of how many brackets there are;
        # then x + h and x - h for every root
        stability_calls = math.ceil(2 * len(diagram.points) / _BLOCK_ROWS)
        assert len(rows) <= scan_blocks + 200 + 1 + stability_calls
        assert max(rows) <= _BLOCK_ROWS
        assert len(diagram.points) >= len(grid)

    def test_split_residual_drops_blowup_cell(self):
        # x - (x + c)/x^2 has the cubic's roots except x = 0, where it blows
        # up (c = 0 changes sign across the pole and is 0/0 on the grid point)
        grid = np.array([-0.2, 0.0, 0.2])
        split = bifurcation_sweep(hysteresis_split_residual, grid, (-2, 2))
        cubic = bifurcation_sweep(hysteresis_rhs_residual, grid, (-2, 2))
        assert split.counts.tolist() == [3, 2, 3]
        expected = [p for p in cubic.points if abs(p.x_star[0]) > 1e-3]
        assert [(p.u[0], p.stability) for p in split.points] == \
            [(p.u[0], p.stability) for p in expected]
        assert_close([p.x_star[0] for p in split.points],
                     [p.x_star[0] for p in expected], rtol=1e-9)


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
        report = summarize_targets(
            [np.array([0.01]), np.array([0.04]), np.array([0.1])], [3.0], "range"
        )
        assert report.within_5pct[0] == pytest.approx(2.0 / 3.0)
        assert report.within_2pct[0] == pytest.approx(1.0 / 3.0)
        doc = report.to_dict()
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
