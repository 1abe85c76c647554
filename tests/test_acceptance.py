"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 6-8 train models
at desk scale and take several minutes each; everything else is seconds.
"""

import json
import time

import numpy as np
import pytest

from stabledyn import analysis, benchmarks, control, field as field_mod, nnet, training
from stabledyn.benchmarks import (
    BUDWORM,
    SYM_HYSTERESIS,
    TOGGLE_SWITCH,
    TWO_TANKS,
)
from stabledyn.integrate import StageTape, TimeGrid, rk4_solve_batch, rk4_solve_unrolled_grad
import theory
from util import central_diff_grad, make_field, roots_at

TIP = 2.0 / np.sqrt(27.0)


def report(number: int, name: str, passed: bool):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {number}: {name}")
    assert passed, f"criterion {number} failed: {name}"


def rel_err(a, b, floor=1e-6):
    a, b = np.asarray(a), np.asarray(b)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0


class TestCriterion1Gradients:
    def test_gradient_correctness(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        worst_plain = worst_field = worst_rk4 = 0.0

        # 40 randomized MLPs: parameter and input gradients
        for _ in range(40):
            sizes = [int(rng.integers(1, 5))]
            for _ in range(int(rng.integers(0, 3))):
                sizes.append(int(rng.integers(2, 6)))
            sizes.append(int(rng.integers(1, 4)))
            lo = float(rng.uniform(-3, 0))
            spec = nnet.MlpSpec(tuple(sizes), output_bounds=(lo, lo + float(rng.uniform(0.5, 3))))
            params = rng.normal(size=nnet.param_count(spec))
            x = rng.normal(size=(1, spec.in_dim))
            cot = rng.normal(size=(1, spec.out_dim))
            _, cache = nnet.forward_cached(spec, nnet.split_params(spec, params), x)
            pg = nnet.mlp_backward(cache, cot)
            xg = nnet.mlp_input_vjp(cache, cot)[0]

            def value(p, xx):
                return float(np.sum(cot * nnet.mlp_values(nnet.split_params(spec, p), (xx,))))

            fd_p = central_diff_grad(lambda p: value(p, x), params)
            fd_x = central_diff_grad(lambda xx: value(params, xx), x)
            worst_plain = max(worst_plain, rel_err(pg, fd_p), rel_err(xg, fd_x))

        # 40 composed structured fields: params, state, and control grads
        for i in range(40):
            dim = int(rng.integers(1, 3))
            feat = field_mod.Featurizer(-1.5, 1.5, 4) if dim == 1 and i % 2 else None
            fld = make_field(dim=dim, control_dim=int(rng.integers(1, 3)),
                             featurizer=feat, seed=int(rng.integers(1e6)))
            x = rng.uniform(-1.5, 1.5, fld.dim)
            u = rng.uniform(-1, 1, fld.control_dim)
            w = rng.normal(size=fld.dim)
            _, cache = field_mod.velocity_cached(fld, x[None, :], u[None, :])
            pg = field_mod.velocity_vjp_cached(fld, cache, w[None, :])
            xg, ug = field_mod.velocity_input_vjp_cached(fld, cache, w[None, :])
            fd_full = central_diff_grad(
                lambda p: float(w @ field_mod.eval_velocity(fld.with_params(p), x, u)),
                fld.params,
            )
            fd_x = central_diff_grad(lambda xx: float(w @ field_mod.eval_velocity(fld, xx, u)), x)
            fd_u = central_diff_grad(lambda uu: float(w @ field_mod.eval_velocity(fld, x, uu)), u)
            worst_field = max(worst_field,
                              rel_err(pg, fd_full), rel_err(xg[0], fd_x), rel_err(ug[0], fd_u))

        # 20 unrolled-RK4 parameter gradients (rel 1e-3)
        for _ in range(20):
            fld = make_field(dim=1, control_dim=1, hidden=(4,), seed=int(rng.integers(1e6)))
            n_steps = int(rng.integers(1, 6))
            grid = TimeGrid(0.0, 0.3, n_steps)
            x0 = rng.uniform(-1, 1, size=(2, 1))
            u = rng.uniform(-1, 1, size=(2, 1))
            cots = rng.normal(size=(2, n_steps + 1, 1))

            def solve(p):
                return rk4_solve_batch(
                    lambda x, uu: field_mod.eval_velocity(fld.with_params(p), x, uu),
                    x0, u, grid)

            grad = rk4_solve_unrolled_grad(fld, solve(fld.params), u, grid, cots, StageTape())

            def objective(p):
                return float(np.sum(cots * solve(p)))

            worst_rk4 = max(worst_rk4, rel_err(grad, central_diff_grad(objective, fld.params),
                                               floor=1e-5))

        elapsed = time.perf_counter() - t0
        ok = worst_plain <= 1e-4 and worst_field <= 1e-4 and worst_rk4 <= 1e-3 and elapsed < 60
        report(1, f"reverse-mode gradients match finite differences "
                  f"(mlp {worst_plain:.2e}, field {worst_field:.2e}, rk4 {worst_rk4:.2e}, "
                  f"{elapsed:.1f}s)", ok)


class TestCriterion2SplitIdentity:
    def test_oracle_split_identity(self):
        rng = np.random.default_rng(202)
        n = 10_000
        worst = 0.0
        cases = {
            SYM_HYSTERESIS: (rng.uniform(0.05, 2, (n, 1)) * rng.choice([-1.0, 1.0], (n, 1)),
                             rng.uniform(-1, 1, (n, 1))),
            BUDWORM: (rng.uniform(0.05, 10, (n, 1)), rng.uniform(4.45, 11.99, (n, 1))),
            TOGGLE_SWITCH: (rng.uniform(0, 6, (n, 2)), rng.uniform(0.1, 5, (n, 4))),
        }
        for system, (xs, us) in cases.items():
            f, g = benchmarks.analytic_split(system, xs, us)
            rhs = benchmarks.system_rhs(system, xs, us)
            worst = max(worst, float(np.max(np.abs(f * (xs - g) - rhs))))
        report(2, f"analytic splits satisfy f*(x-g) = rhs on 3x10^4 fuzzed points "
                  f"(worst |gap| {worst:.2e})", worst <= 1e-12)


class TestCriterion3BifurcationOracles:
    def test_hysteresis_tipping(self):
        grid = np.linspace(-1, 1, 401)
        cell = grid[1] - grid[0]
        diagram = analysis.bifurcation_sweep(
            lambda c: (lambda x: x**3 - x - c),
            grid, (-2.0, 2.0))
        tips = diagram.tipping_points
        ok = (len(tips) == 2 and abs(tips[0] + TIP) <= cell and abs(tips[1] - TIP) <= cell)
        report(3, f"oracle sweeps recover tipping points: hysteresis {np.round(tips, 4)} "
                  f"vs ±{TIP:.4f} within one cell", ok)

    def test_budworm_tipping(self):
        r = 0.56
        grid = np.linspace(4.45, 11.99, 401)
        diagram = analysis.bifurcation_sweep(
            lambda c: (lambda x: x - (r / c) * (1 + x * x) * (c - x)),
            grid, (0.1, 10.0))
        tips = diagram.tipping_points
        ok = len(tips) == 2 and abs(tips[0] - 6.45) <= 0.05 and abs(tips[1] - 9.93) <= 0.05
        report(3, f"budworm tipping {np.round(tips, 3)} vs (6.45, 9.93) within 0.05", ok)


class TestCriterion4TheorySuite:
    def test_lemma_sign_equivalence(self):
        h = 1e-6
        checked = 0
        ok = True
        # hysteresis sweep: stability sign vs target-slope condition at roots
        sweep = analysis.bifurcation_sweep(lambda lam: (lambda x: x**3 - x - lam),
                                           np.linspace(-1, 1, 101), (-2, 2))
        for lam, root in zip(sweep.u, sweep.x_star):
            if abs(root) < 1e-3:
                continue  # split target undefined at x=0
            g = lambda x: (x + lam) / x**2
            slope_g = (g(root + h) - g(root - h)) / (2 * h)
            vel = lambda x: lam + x - x**3
            slope_F = (vel(root + h) - vel(root - h)) / (2 * h)
            ok = ok and ((slope_F < 0) == (slope_g < 1))
            checked += 1
        # budworm sweep
        r = 0.56

        def budworm_target(kappa):
            return lambda x: (r / kappa) * (1 + x * x) * (kappa - x)

        sweep = analysis.bifurcation_sweep(lambda kappa: (lambda x: x - budworm_target(kappa)(x)),
                                           np.linspace(4.45, 11.99, 101), (0.1, 10.0))
        for kappa, root in zip(sweep.u, sweep.x_star):
            g = budworm_target(kappa)
            vel = lambda x: r * x * (1 - x / kappa) - x * x / (1 + x * x)
            slope_g = (g(root + h) - g(root - h)) / (2 * h)
            slope_F = (vel(root + h) - vel(root - h)) / (2 * h)
            ok = ok and ((slope_F < 0) == (slope_g < 1))
            checked += 1
        report(4, f"(a) stability sign equals (d target/dx < 1) at {checked} oracle "
                  f"equilibria across both sweeps", ok and checked > 300)

    def test_geometric_bound_exact(self):
        rng = np.random.default_rng(404)
        ok = True
        for _ in range(50):
            L = float(rng.uniform(0.05, 0.95))
            x_star = float(rng.uniform(-2, 2))
            linear = lambda x, u: np.atleast_1d(L * (x[0] - x_star) + x_star)
            x0 = x_star + float(rng.uniform(-1, 1))
            x = np.array([x0])
            for k in range(1, 30):
                x = control.iterate_target(linear, x, np.zeros(1), 1)
                bound = (L**k) * abs(x0 - x_star)
                ok = ok and abs(x[0] - x_star) <= bound * (1 + 1e-12) + 1e-15
            # nonlinear contraction |g'| <= L: bound still holds
            wavy = lambda x, u: np.atleast_1d(x_star + L * np.sin(x[0] - x_star))
            x = np.array([x0])
            for k in range(1, 30):
                x = control.iterate_target(wavy, x, np.zeros(1), 1)
                ok = ok and abs(x[0] - x_star) <= (L**k) * abs(x0 - x_star) * (1 + 1e-12) + 1e-15
        report(4, "(b) geometric bound |x_k - x*| <= L^k |x0 - x*| exact for injected "
                  "contractions", ok)

    def test_remark_counterexample(self):
        lam = 1.0
        roots = roots_at(lambda x: x**3 - x - lam, (-2, 2))
        x_star = roots[0]
        g = lambda x: (x + lam) / x**2
        L, is_contraction = theory.contraction_bound(g, x_star, 0.05)
        stab = theory.classify_stability(
            lambda x: np.atleast_1d(lam + x[0] - x[0] ** 3), [x_star])
        slope = (-x_star - 2 * lam) / x_star**3
        ok = (len(roots) == 1 and abs(abs(slope) - 1.43) <= 0.01 and L > 1.0
              and not is_contraction and stab == analysis.STABLE)
        report(4, f"(c) Remark regime: ODE-stable equilibrium with |d target/dx| = "
                  f"{abs(slope):.3f} > 1 (sampled sup {L:.3f})", ok)


class TestCriterion5LinearControl:
    def test_gd_contraction_rate(self):
        rng = np.random.default_rng(505)
        worst = 0.0
        for _ in range(100):
            q = int(rng.integers(2, 5))
            d = q + int(rng.integers(0, 3))
            rho_want = float(rng.uniform(0.1, 0.9))
            smin = float(rng.uniform(0.5, 1.5))
            smax = smin * np.sqrt((1 + rho_want) / (1 - rho_want))
            sig = np.concatenate([[smax, smin], rng.choice([smax, smin], q - 2)])
            U, _ = np.linalg.qr(rng.normal(size=(d, q)))
            V, _ = np.linalg.qr(rng.normal(size=(q, q)))
            G = U @ np.diag(sig) @ V.T
            prob = theory.LinearControlProblem(G, rng.normal(size=d))
            eta, rho = theory.optimal_gd_step(G)
            res = theory.gd_linear(prob, rng.normal(size=q), eta, 60)
            usable = res.errors[1:] > 1e-8 * res.errors[0]
            ratios = res.errors[1:][usable] / res.errors[:-1][usable]
            assert len(ratios) >= 3
            worst = max(worst, float(np.max(np.abs(ratios - rho))))
        report(5, f"(a) measured gd contraction matches (k^2-1)/(k^2+1) "
                  f"(worst dev {worst:.2e})", worst <= 1e-6)

    def test_gradient_flow_bound(self):
        rng = np.random.default_rng(506)
        ok = True
        for _ in range(30):
            q = int(rng.integers(1, 4))
            d = q + int(rng.integers(0, 2))
            G = rng.normal(size=(d, q)) + np.eye(d, q)
            sig = np.linalg.svd(G, compute_uv=False)
            if sig[-1] < 0.2:
                continue
            prob = theory.LinearControlProblem(G, rng.normal(size=d))
            u0 = rng.normal(size=q)
            eta = 0.5
            # h small enough that RK4 error stays under the bound slack
            n_steps = max(1000, int(50 * eta * sig[0] ** 2 * 3))
            times, us = theory.gradient_flow_linear(prob, u0, eta, TimeGrid(0, 3, n_steps))
            err = np.linalg.norm(us - theory.linear_minnorm(prob), axis=1)
            bound = np.exp(-eta * sig[-1] ** 2 * times) * err[0]
            ok = ok and bool(np.all(err <= bound * (1 + 1e-9) + 1e-12))
        report(5, "(b) gradient-flow error within exp(-eta sigma_min^2 t) at every node", ok)

    def test_ridge_limit(self):
        # nonzero singular values kept >= 0.1: the lam -> 0 limit differs from
        # the pseudoinverse by ~lam/sigma^3 per mode, so uncontrolled
        # near-singular draws cannot meet 1e-6 at lam=1e-10
        rng = np.random.default_rng(507)
        worst = 0.0
        for i in range(100):
            d, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            k = min(d, q)
            sig = rng.uniform(0.1, 3.0, size=k)
            if i % 3 == 0 and k >= 2:
                sig[-1] = 0.0  # exact rank deficiency
            U, _ = np.linalg.qr(rng.normal(size=(d, k)))
            V, _ = np.linalg.qr(rng.normal(size=(q, k)))
            G = U @ np.diag(sig) @ V.T
            x_ref = rng.normal(size=d)
            mn = theory.linear_minnorm(theory.LinearControlProblem(G, x_ref))
            rr = theory.ridge_solve(theory.LinearControlProblem(G, x_ref, lam=1e-10))
            worst = max(worst, float(np.linalg.norm(mn - rr)))
        report(5, f"(c) ridge solutions at lam=1e-10 match the pseudoinverse "
                  f"(worst diff {worst:.2e})", worst <= 1e-6)


class TestCriterion9StructuralStability:
    def test_trajectories_confined(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(909)
        worst_excess = 0.0
        for _ in range(1000):
            dim = int(rng.integers(1, 3))
            g_lo, g_hi = -1.0, 1.0
            fld = make_field(
                dim=dim,
                control_dim=1,
                hidden=(int(rng.integers(4, 9)),),
                decay_bounds=(-float(rng.uniform(1, 4)), -0.05),
                target_bounds=(g_lo, g_hi),
                seed=int(rng.integers(2**31)),
                weight_scale=float(rng.uniform(0.3, 2.0)),
            )
            # 2x-inflated domain box around the target bounds
            x0 = rng.uniform(2 * g_lo, 2 * g_hi, size=(1, dim))
            u = rng.uniform(-1, 1, size=(1, 1))
            states = rk4_solve_batch(
                lambda x, uu: field_mod.eval_velocity(fld, x, uu),
                x0, u, TimeGrid(0.0, 6.0, 120))[0]
            lo = np.minimum(x0[0], g_lo)
            hi = np.maximum(x0[0], g_hi)
            excess = max(float(np.max(states - hi)), float(np.max(lo - states)))
            worst_excess = max(worst_excess, excess)
        elapsed = time.perf_counter() - t0
        ok = worst_excess <= 1e-6 and elapsed < 60
        report(9, f"1000 random bounded-decay fields stay in hull(x0, target box) "
                  f"(worst excess {worst_excess:.2e}, {elapsed:.1f}s)", ok)


class TestCriterion10Determinism:
    def test_cli_byte_reproducibility(self, tmp_path):
        from stabledyn.cli import EXIT_OK, main

        proto = benchmarks.DataProtocol(
            np.linspace(-1.5, 1.5, 4)[:, None], np.linspace(-0.5, 0.5, 3)[:, None],
            horizon=0.25, samples_per_traj=6)
        ds = benchmarks.gen_dataset(SYM_HYSTERESIS, proto)
        data_prefix = tmp_path / "tiny"
        benchmarks.save_dataset(data_prefix, ds, proto, 1)

        commands = {
            "gen-data": ["gen-data", "--system", "budworm", "--samples", "4", "--seed", "3"],
            "train": ["train", "--system", "sym-hysteresis", "--data", str(data_prefix),
                      "--epochs", "2", "--seed", "5"],
            "cv": ["cv", "--system", "sym-hysteresis", "--data", str(data_prefix),
                   "--epochs", "1", "--folds", "3", "--restarts", "1", "--seed", "5"],
            "simulate": ["simulate", "--system", "budworm", "--oracle", "--samples", "5",
                         "--limit", "5", "--seed", "2"],
            "equilibria": ["equilibria", "--system", "sym-hysteresis", "--oracle",
                           "--control", "0.2"],
            "bifurcate": ["bifurcate", "--system", "budworm", "--oracle", "--points", "60"],
            "control": ["control", "--system", "budworm", "--oracle", "--trials", "1",
                        "--targets", "2", "--t-per-target", "2.0", "--seed", "9"],
        }
        def normalized(path):
            data = path.read_bytes()
            if path.name.endswith("report.json"):
                # the training report records wall time by design; everything
                # else in it must still match exactly
                doc = json.loads(data)
                doc.pop("wall_time_s", None)
                data = json.dumps(doc, sort_keys=True).encode()
            return data

        ok = True
        detail = []
        for name, argv in commands.items():
            outputs = []
            for run in ("x", "y"):
                out = tmp_path / f"{name}-{run}"
                out.mkdir()
                rc = main(argv + ["--out", str(out), "--threads", "1"])
                assert rc == EXIT_OK, f"{name} exited {rc}"
                outputs.append({p.name: normalized(p) for p in sorted(out.iterdir())})
            same = outputs[0] == outputs[1]
            ok = ok and same
            detail.append(f"{name}:{'=' if same else '!'}")
        report(10, f"CLI commands byte-reproducible under --threads 1 "
                   f"({' '.join(detail)})", ok)
