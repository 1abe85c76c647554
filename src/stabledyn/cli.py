"""Command-line orchestration: data generation, training, cross validation,
simulation, equilibrium/bifurcation analysis, and feedback-control trials.

Every command is driven by explicit seeds and an optional flat JSON config
file (CLI flags override file values), and writes machine-readable CSV/JSON
outputs only. Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, benchmarks, control, field as field_mod, nnet, training
from .integrate import DatasetError, Trajectory, rk4_solve_batch, write_trajectories_csv
from .nnet import NonFiniteError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def _load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}")
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a flat JSON object")
    return doc


def _merge_config(args: argparse.Namespace, parser_defaults: dict, argv) -> argparse.Namespace:
    """File values fill in every option whose flag is not typed in argv."""
    if not getattr(args, "config", None):
        return args
    doc = _load_config(args.config)
    given = _given_options(argv)
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if attr not in parser_defaults:
            raise ConfigError(f"unknown config key {key!r}")
        if attr not in given:
            setattr(args, attr, value)
    return args


def _given_options(argv) -> set[str]:
    """Dests of the options typed in argv: a second parse in which no option
    has a default, so only flags that were given reach the namespace."""
    parser = build_parser()
    for sub in parser._subparsers._group_actions[0].choices.values():
        for action in sub._actions:
            action.default = argparse.SUPPRESS
    return set(vars(parser.parse_args(argv)))


# lowest accepted value of each numeric option that a command may carry
_INT_MIN = {
    "seed": 0, "threads": 1, "samples": 2, "epochs": 1, "batch_size": 1, "folds": 2,
    "restarts": 1, "limit": 1, "scan": 1, "scan_nd": 1, "points": 1, "k": 1, "targets": 1,
    "trials": 1, "record_every": 1,
}
_FLOAT_POSITIVE = ("lr", "horizon", "eta", "t_per_target")
_FLOAT_NONNEGATIVE = ("sigma",)
# `gen-data` and `simulate` refuse a solve whose RK4 steps, counted as state
# values over every node of every trajectory (trajectories x dims x
# (steps + 1)), exceed this; the solve keeps only the sampled nodes, so this
# caps the step work, not the memory held. `control` refuses trials whose
# Euler steps, counted the same way over its trials, exceed it, and a --k
# whose per-step target caches over all trials (`nnet.cache_values` per
# level: each layer's input, the output sigmoid and one SiLU derivative per
# hidden unit, 87 values for the sym-hysteresis target net) exceed it, and
# tanks or toggle targets whose settling RK4 steps
# (trials x targets x dims x (settle steps + 1)) exceed it. `bifurcate`
# refuses a sweep whose residual scan, counted as control values x (scan
# cells + 1), exceeds it.
_MAX_STEP_VALUES = 2**27
# `bifurcate` and the scalar `equilibria` refuse a --scan whose row of scan
# + 1 points exceeds this: a row is scanned and held whole, about 40 bytes
# per point. At 2^22 points a budworm oracle run peaks at 202 MB RSS, 34 MB
# at the default 401 (2-core x86-64, numpy 2.4, OpenBLAS).
_MAX_SCAN_ROW = 2**22
# `equilibria` of a d > 1 system refuses more Newton starts (scan-nd^d) than
# this: the starts are built whole and Newton runs them one at a time in
# Python, about 1 ms each for the toggle-switch oracle (2-core x86-64).
_MAX_NEWTON_STARTS = 2**16
# the JSON type of each non-numeric option a command may carry
_JSON_TYPES = {"system": str, "out": str, "data": str, "field": str, "control": str,
               "oracle": bool, "paper_scale": bool}


def _check_ranges(args: argparse.Namespace, parser_defaults: dict) -> None:
    """Reject out-of-range or mistyped options, whether they came from flags
    or from a --config file. None stands for "not given" only where it is
    the option's default."""
    def given(attr):
        value = getattr(args, attr, None)
        return not (value is None and parser_defaults.get(attr) is None), value

    for attr, lo in _INT_MIN.items():
        present, value = given(attr)
        if present and (isinstance(value, bool) or not isinstance(value, int) or value < lo):
            raise ConfigError(f"{attr.replace('_', '-')} must be an integer >= {lo}, "
                              f"got {value!r}")
    for attr in _FLOAT_POSITIVE + _FLOAT_NONNEGATIVE:
        present, value = given(attr)
        if not present:
            continue
        strict = attr in _FLOAT_POSITIVE
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value) or value < 0 or (strict and value == 0)):
            bound = "> 0" if strict else ">= 0"
            raise ConfigError(f"{attr.replace('_', '-')} must be a finite number {bound}, "
                              f"got {value!r}")
    for attr, kind in _JSON_TYPES.items():
        present, value = given(attr)
        if present and not isinstance(value, kind):
            raise ConfigError(f"{attr.replace('_', '-')} must be a JSON "
                              f"{'string' if kind is str else 'boolean'}, got {value!r}")


def _outdir(args) -> Path:
    out = Path(args.out)
    if not out.exists():
        raise ConfigError(f"output directory does not exist: {out}")
    if not out.is_dir():
        raise ConfigError(f"output path is not a directory: {out}")
    return out


def _check_system(name: str) -> str:
    if name not in benchmarks.SYSTEMS:
        raise ConfigError(
            f"unknown system {name!r}; choose from {', '.join(benchmarks.SYSTEMS)}"
        )
    return name


def _protocol(args) -> benchmarks.DataProtocol:
    return benchmarks.default_protocol(args.system, paper_scale=args.paper_scale,
                                       samples_per_traj=args.samples)


def _count(n) -> str:
    """A step count, exact below 10^6, else to 3 digits; an int stays exact."""
    # only a refusal needs it; imported at start-up it adds 0.4 MB peak RSS
    from decimal import Decimal
    return f"{n:.0f}" if n < 1e6 else format(Decimal(n), ".3g")


def _check_step_work(proto, pairs_x: np.ndarray, horizon, option: str, remedy: str) -> None:
    """Refuse, before its grid is built, a solve of the initial states
    ``pairs_x`` over [0, horizon] that takes more than _MAX_STEP_VALUES;
    ``option`` names the flag that set the grid and ``remedy`` how to shrink
    the solve. The step count is exact, however large."""
    steps = (proto.samples_per_traj - 1) * proto.stride(horizon)
    if pairs_x.size * (steps + 1) > _MAX_STEP_VALUES:
        raise ConfigError(f"{option} takes {_count(steps)} RK4 steps per trajectory at the "
                          f"system's step: too many RK4 steps for {len(pairs_x)} "
                          f"trajectories; {remedy}")


def _check_scan_row(scan: int) -> None:
    """Refuse a scalar root scan whose row of scan points exceeds _MAX_SCAN_ROW."""
    if scan + 1 > _MAX_SCAN_ROW:
        raise ConfigError(f"--scan {scan} takes {scan + 1} scan points per control value: "
                          f"too many (at most {_MAX_SCAN_ROW}); lower --scan")


def _json_dump(path: Path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# --- commands -----------------------------------------------------------------

def cmd_gen_data(args) -> int:
    system = _check_system(args.system)
    out = _outdir(args)
    proto = _protocol(args)
    _check_step_work(proto, proto.pairs()[0], proto.horizon, f"--samples {args.samples}",
                     "lower it")
    manifest = benchmarks.save_dataset(out / f"{system}-data",
                                       benchmarks.gen_dataset(system, proto), proto, args.seed)
    print(f"wrote {manifest['n_trajectories']} trajectories to {out}/{system}-data.csv")
    return EXIT_OK


def _load_dataset_arg(args) -> tuple[str, benchmarks.Dataset]:
    """(system, dataset) of --data: the system is --system or, without it,
    the manifest's. A dataset of another system than --system, or whose
    state and control widths are not its system's, is a config error."""
    prefix = args.data
    if prefix is None:
        raise ConfigError("--data PREFIX is required (output of gen-data)")
    if prefix.endswith(".csv") or prefix.endswith(".json"):
        prefix = prefix.rsplit(".", 1)[0]
    try:
        dataset = benchmarks.load_dataset(prefix)
    # json.JSONDecodeError, a content-hash mismatch and a malformed CSV row
    # are ValueErrors, a missing manifest key a KeyError and a manifest of
    # the wrong shape a TypeError
    except (OSError, LookupError, ValueError, TypeError) as err:
        raise ConfigError(f"cannot load dataset {prefix!r}: {type(err).__name__}: {err}")
    system = _check_system(args.system or dataset.system)
    if dataset.system != system:
        raise ConfigError(f"dataset {prefix!r} is {dataset.system!r} data, "
                          f"not {args.system!r}")
    # the content hash covers the CSV only, so a manifest may name a system
    # whose dims the rows do not have
    dims = benchmarks.SYSTEM_DIMS[system]
    if dataset.trajectories:
        first = dataset.trajectories[0]
        if (first.dim, first.control.size) != dims:
            raise ConfigError(f"dataset {prefix!r} has (state, control) dims "
                              f"{(first.dim, first.control.size)}; {system} needs {dims}")
    return system, dataset


def _train_config(args, system) -> tuple[training.TrainConfig, int]:
    cfg, cv_epochs = benchmarks.default_train_recipe(system)
    if args.epochs is not None:
        cfg = replace(cfg, epochs=args.epochs)
        cv_epochs = args.epochs
    if args.batch_size is not None:
        cfg = replace(cfg, batch_size=args.batch_size)
    if args.lr is not None:
        cfg = replace(cfg, lr0=args.lr)
    cfg = replace(cfg, seed=args.seed, restarts=args.restarts)
    if hasattr(args, "folds"):  # only cv takes --folds
        cfg = replace(cfg, folds=args.folds)
    return cfg, cv_epochs


def cmd_train(args) -> int:
    out = _outdir(args)
    system, dataset = _load_dataset_arg(args)
    cfg, _ = _train_config(args, system)
    # the objective holds its own copy of the data, so the parsed table is
    # freed before the first epoch
    objective = training.make_objective(cfg, dataset.trajectories)
    del dataset
    result = training.train_with_restarts(
        lambda seed: benchmarks.make_untrained_field(system, seed), objective, cfg)
    field_mod.save_field(out / f"{system}-field.json", result.field, seed=result.seed,
                         system=system)
    _json_dump(out / f"{system}-train-report.json", result.report(cfg))
    print(f"best loss {result.best_loss:.6e}; checkpoint {out}/{system}-field.json")
    return EXIT_OK


def cmd_cv(args) -> int:
    out = _outdir(args)
    system, dataset = _load_dataset_arg(args)
    cfg, cv_epochs = _train_config(args, system)

    candidates = [
        (name, lambda seed, recipe=recipe: benchmarks.make_untrained_field(system, seed, recipe))
        for name, recipe in benchmarks.candidate_models(system)
    ]

    report = training.cross_validate(
        dataset.trajectories, candidates, cfg, cv_epochs=cv_epochs
    )
    _json_dump(out / f"{system}-cv-report.json", report.to_dict())
    if report.final is not None:
        field_mod.save_field(out / f"{system}-field.json", report.final.field,
                             seed=report.final.seed, system=system)
    print(f"selected architecture: {report.selected}; report {out}/{system}-cv-report.json")
    return EXIT_OK


def _field_for_analysis(args, system):
    """The --field checkpoint, or None when --oracle is set."""
    if args.oracle:
        if system == benchmarks.TWO_TANKS:
            raise ConfigError("the mixing tanks have no analytic split; train a model")
        return None
    return _load_field_arg(args)


def _split(system, fld):
    """(batched residual ``r(x, u)``, decay ``f(x)``) of the velocity
    f * r, with f < 0: ``x - target`` and the decay net of a learned field,
    or for the oracle (fld None) ``-rhs`` and -1, which give the split's
    zeros and velocity but stay finite where the split blows up. The
    residual is what analysis.bifurcation_sweep scans, and both are what
    analysis.find_equilibria_nd takes."""
    if fld is None:
        return lambda x, u: -benchmarks.system_rhs(system, x, u), lambda x: -np.ones_like(x)
    return (lambda x, u: field_mod.residual(fld, x, u),
            lambda x: field_mod.eval_decay(fld, x))


def _load_field_arg(args) -> field_mod.StructuredField:
    """The --field checkpoint; a missing, unreadable or malformed file, or
    one trained for another system, is a config error."""
    if not args.field:
        raise ConfigError("--field CHECKPOINT is required unless --oracle is set")
    try:
        fld, system = field_mod.read_checkpoint(args.field)
    # json.JSONDecodeError is a ValueError; TypeError is a document of the
    # wrong shape, such as a list where an object belongs, and OverflowError
    # a JSON integer past float range where a number belongs
    except (OSError, KeyError, ValueError, TypeError, OverflowError) as err:
        raise ConfigError(f"cannot load field checkpoint {args.field!r}: "
                          f"{type(err).__name__}: {err}")
    # a checkpoint written before systems were recorded holds none
    if system is not None and system != args.system:
        raise ConfigError(f"field checkpoint {args.field!r} was trained for {system!r}, "
                          f"not {args.system!r}")
    dims = benchmarks.SYSTEM_DIMS[args.system]
    if (fld.dim, fld.control_dim) != dims:
        raise ConfigError(f"field checkpoint {args.field!r} has (state, control) dims "
                          f"{(fld.dim, fld.control_dim)}; {args.system} needs {dims}")
    return fld


def cmd_simulate(args) -> int:
    system = _check_system(args.system)
    out = _outdir(args)
    proto = _protocol(args)
    horizon = proto.horizon if args.horizon is None else args.horizon
    pairs_x, pairs_u = proto.pairs()
    if args.limit is not None:
        pairs_x, pairs_u = pairs_x[: args.limit], pairs_u[: args.limit]
    _check_step_work(proto, pairs_x, horizon, f"--horizon {horizon}", "lower it or --limit")
    try:
        grid, stride = proto.sampling(horizon)
    except ValueError as err:  # a horizon too short for one RK4 step
        raise ConfigError(f"--horizon {horizon}: {err}")

    if args.oracle:
        rhs = benchmarks.rhs_fn(system)
        tag = "oracle"
    else:
        fld = _load_field_arg(args)
        rhs = lambda x, u: field_mod.eval_velocity(fld, x, u)
        tag = "model"

    states = rk4_solve_batch(rhs, pairs_x, pairs_u, grid, every=stride)
    times = grid.times()[::stride]
    trajs = [Trajectory(times, states[i], pairs_u[i], traj_id=i) for i in range(len(pairs_x))]
    path = out / f"{system}-simulate-{tag}.csv"
    write_trajectories_csv(path, trajs)
    print(f"wrote {len(trajs)} simulated trajectories to {path}")
    return EXIT_OK


def cmd_equilibria(args) -> int:
    system = _check_system(args.system)
    out = _outdir(args)
    d, q = benchmarks.SYSTEM_DIMS[system]
    if d == 1:
        _check_scan_row(args.scan)
    elif args.scan_nd ** d > _MAX_NEWTON_STARTS:
        raise ConfigError(f"--scan-nd {args.scan_nd} takes {_count(args.scan_nd ** d)} Newton "
                          f"starts in {d}-d: too many (at most {_MAX_NEWTON_STARTS}); "
                          f"lower --scan-nd")
    fld = _field_for_analysis(args, system)
    res, decay = _split(system, fld)
    if args.control is None:
        u = np.asarray(benchmarks.default_control_recipe(system).u0, dtype=float)
    else:
        try:
            u = np.array([float(v) for v in str(args.control).split(",")])
        except ValueError:
            u = None
        if u is None or u.shape != (q,) or not np.isfinite(u).all():
            raise ConfigError(f"--control needs {q} comma-separated finite numbers, "
                              f"got {args.control!r}")
    box = benchmarks.SYSTEM_BOX[system]

    if d == 1:
        # every scalar-state system has one control, so u is a one-point sweep
        diagram = analysis.bifurcation_sweep(_sweep_form(res), u, box[0], n_scan=args.scan)
        roots, labels, norms = diagram.x_star[:, None], diagram.stability, diagram.residual_norm
    else:
        roots, labels, norms, failed = analysis.find_equilibria_nd(
            lambda x: res(x, u), decay, box, starts_per_axis=args.scan_nd)
    rows = [[*x.tolist(), label, float(norm)]
            for x, label, norm in zip(roots, labels.tolist(), norms)]

    doc = {"system": system, "control": u.tolist(), "equilibria": rows}
    failed_note = ""
    if d > 1:
        doc["failed_starts"] = failed
        failed_note = f" ({failed} Newton starts failed)"
    path = out / f"{system}-equilibria.json"
    _json_dump(path, doc)
    print(f"found {len(rows)} equilibria{failed_note}; wrote {path}")
    return EXIT_OK


def _sweep_form(res):
    """A scalar-state residual as analysis.bifurcation_sweep takes it:
    ``residual_of(c)(x)`` on equal-length 1-d arrays of controls and states."""
    return lambda c: (lambda x: res(x[:, None], c[:, None])[:, 0])


def cmd_bifurcate(args) -> int:
    system = _check_system(args.system)
    out = _outdir(args)
    d, q = benchmarks.SYSTEM_DIMS[system]
    if d != 1:
        raise ConfigError("bifurcation sweeps support scalar-state systems; "
                          "use `equilibria` per control setting for 2-d systems")
    if args.points * (args.scan + 1) > _MAX_STEP_VALUES:
        raise ConfigError(f"--points {args.points} x (--scan {args.scan} + 1) takes "
                          f"{_count(args.points * (args.scan + 1))} scan points: too many "
                          f"(at most {_MAX_STEP_VALUES}); lower --points or --scan")
    _check_scan_row(args.scan)
    fld = _field_for_analysis(args, system)
    proto = benchmarks.default_protocol(system)
    lo_u, hi_u = float(proto.control_grid.min()), float(proto.control_grid.max())
    grid = np.linspace(lo_u, hi_u, args.points)
    interval = benchmarks.SYSTEM_BOX[system][0]

    diagram = analysis.bifurcation_sweep(_sweep_form(_split(system, fld)[0]), grid,
                                         interval, n_scan=args.scan)
    csv_path = out / f"{system}-bifurcation.csv"
    with open(csv_path, "w") as fh:
        fh.write("control_value,x_0,stability\n")
        for u, x, stab in zip(diagram.u, diagram.x_star, diagram.stability):
            fh.write(f"{u:.17g},{x:.17g},{stab}\n")
    _json_dump(out / f"{system}-tipping.json",
               {"system": system, "tipping_points": diagram.tipping_points})
    print(f"swept {len(grid)} control values; tipping points: "
          f"{[round(t, 4) for t in diagram.tipping_points]}")
    return EXIT_OK


def cmd_control(args) -> int:
    system = _check_system(args.system)
    out = _outdir(args)
    fld = _field_for_analysis(args, system)
    target_map = fld if fld is not None else benchmarks.split_target_fn(system)

    given = {name: getattr(args, name) for name in ("k", "eta", "sigma", "t_per_target")}
    recipe = replace(benchmarks.default_control_recipe(system),
                     **{name: value for name, value in given.items() if value is not None})

    d, q = benchmarks.SYSTEM_DIMS[system]
    # counted before rounding, so a count past float range is refused too
    steps = recipe.t_per_target * args.targets / recipe.step
    if args.trials * d * (steps + 1) > _MAX_STEP_VALUES:
        raise ConfigError(f"{args.targets} targets of --t-per-target {recipe.t_per_target} "
                          f"take {_count(steps)} Euler steps of {recipe.step} per trial: too "
                          f"many for --trials {args.trials}; lower --t-per-target, --targets "
                          f"or --trials")
    # every Euler step keeps one target-net cache per level and trial; the
    # analytic split keeps none, so each of its levels counts its state
    per_level = d if fld is None else nnet.cache_values(fld.target_spec)
    if args.trials * recipe.k * per_level > _MAX_STEP_VALUES:
        raise ConfigError(f"--k {_count(recipe.k)} keeps {per_level} values per level and "
                          f"trial in every Euler step: too many for --trials {args.trials}; "
                          f"lower --k or --trials")
    # sample_targets settles each tanks or toggle target on its own RK4 solve
    settle = benchmarks.settle_grid(system)
    if settle is not None and args.trials * args.targets * d * (settle.n_steps + 1) \
            > _MAX_STEP_VALUES:
        raise ConfigError(f"{args.targets} targets for each of --trials {args.trials} "
                          f"settle on {settle.n_steps} RK4 steps each: too many; lower "
                          f"--targets or --trials")
    # refused from the step count alone, before any per-target array exists:
    # each recorded node scores one target
    n_steps = control.control_steps(recipe, args.targets)
    if n_steps == 0:
        raise ConfigError(f"{args.targets} targets of --t-per-target {recipe.t_per_target} "
                          f"round to 0 control steps of {recipe.step}; raise --t-per-target")
    n_recorded = n_steps // args.record_every + 1
    if args.targets > n_recorded:
        raise ConfigError(f"{args.targets} targets cannot all be scored: {n_steps} control "
                          f"steps of {recipe.step}, recorded every {args.record_every}, give "
                          f"{n_recorded} recorded nodes; lower --record-every or raise "
                          f"--t-per-target")
    starts, grid = control.control_schedule(recipe, args.targets)
    _, recorded = control.recorded_nodes(starts, grid, args.record_every)
    unscored = np.flatnonzero(np.bincount(recorded, minlength=args.targets) == 0)
    if unscored.size:
        raise ConfigError(f"{unscored.size} targets would get no recorded node, so they "
                          f"could not be scored (first: {unscored[:10].tolist()}); lower "
                          f"--record-every or raise --t-per-target")

    if recipe.magnitude_definition == "iqr":
        magnitude = benchmarks.system_magnitude(system, _load_dataset_arg(args)[1].trajectories)
    else:
        magnitude = benchmarks.system_magnitude(system)

    trials = range(args.trials)
    targets = benchmarks.sample_targets(system, args.targets,
                                        [[args.seed, 7, trial] for trial in trials])
    trace = control.feedback_simulate(benchmarks.rhs_fn(system), target_map, recipe, targets,
                                      [[args.seed, 11, trial] for trial in trials], starts,
                                      grid=grid, record_every=args.record_every)

    index, times = trace.target_index.tolist(), trace.times.tolist()
    row = ",%d" + ",%.17g" * (1 + d + q) + ",%d\n"  # '%.17g' % v is format(v, '.17g')
    with open(out / f"{system}-control-trials.csv", "w") as fh:
        fh.write(",".join(["trial_id", "target_id", "t"] + [f"x_{i}" for i in range(d)]
                          + [f"u_{i}" for i in range(q)] + ["phase"]) + "\n")
        for trial in trials:
            # one row per recorded node: target, t, x, u and the target again as the phase
            nodes = zip(index, times, *trace.states[:, trial].T.tolist(),
                        *trace.controls[:, trial].T.tolist(), index)
            fh.write((str(trial) + row) * len(times) % tuple(v for node in nodes for v in node))

    summary = analysis.summarize_targets(benchmarks.evaluate_trace(trace, magnitude), magnitude,
                                         recipe.magnitude_definition)
    _json_dump(out / f"{system}-control-summary.json", summary)
    print(f"nRMSE mean per dim: {np.round(summary['nrmse_mean'], 5).tolist()}")
    print(f"within 5%: {np.round(summary['within_5pct'], 3).tolist()}  "
          f"within 2%: {np.round(summary['within_2pct'], 3).tolist()}")
    return EXIT_OK


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabledyn",
        description="Learn stable multistable dynamics and control them "
                    "through the learned equilibrium map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, model=False, protocol=False):
        p.add_argument("--system", required=False, help="benchmark system id")
        p.add_argument("--out", default=".", help="output directory (must exist)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect (every run is "
                            "bitwise reproducible for a fixed BLAS build and thread "
                            "count)")
        p.add_argument("--config", help="flat JSON config file; flags override")
        if protocol:
            p.add_argument("--paper-scale", action="store_true",
                           help="full experiment sizes instead of desk-scale defaults")
            p.add_argument("--samples", type=int, default=51,
                           help="observation samples per trajectory")
        if data:
            p.add_argument("--data", help="dataset prefix written by gen-data")
        if model:
            p.add_argument("--field", help="field checkpoint JSON")
            p.add_argument("--oracle", action="store_true",
                           help="use the analytic split instead of a checkpoint")

    p = sub.add_parser("gen-data", help="generate a benchmark dataset")
    common(p, protocol=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a structured field on a dataset")
    common(p, data=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--restarts", type=int, default=1,
                   help="train from this many seeds and keep the best")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("cv", help="k-fold cross validation over architectures")
    common(p, data=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--restarts", type=int, default=3)
    p.set_defaults(fn=cmd_cv)

    p = sub.add_parser("simulate", help="integrate trajectories on the protocol grid")
    common(p, model=True, protocol=True)
    p.add_argument("--horizon", type=float)
    p.add_argument("--limit", type=int, help="only the first N (ic, control) pairs")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("equilibria", help="equilibria for one control setting")
    common(p, model=True)
    p.add_argument("--control", help="comma-separated control vector")
    p.add_argument("--scan", type=int, default=400)
    p.add_argument("--scan-nd", type=int, default=6)
    p.set_defaults(fn=cmd_equilibria)

    p = sub.add_parser("bifurcate", help="equilibrium branches over a control sweep")
    common(p, model=True)
    p.add_argument("--points", type=int, default=401)
    p.add_argument("--scan", type=int, default=400)
    p.set_defaults(fn=cmd_bifurcate)

    p = sub.add_parser("control", help="stochastic feedback-control trials")
    common(p, data=True, model=True)
    p.add_argument("--k", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--t-per-target", type=float)
    p.add_argument("--targets", type=int, default=10)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--record-every", type=int, default=20)
    p.set_defaults(fn=cmd_control)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    defaults = {
        action.dest: action.default
        for action in parser._subparsers._group_actions[0].choices[args.command]._actions
        if action.default is not argparse.SUPPRESS  # --help
    }
    try:
        args = _merge_config(args, defaults, argv)
        _check_ranges(args, defaults)
        if args.system is None and args.command in ("gen-data", "simulate", "equilibria",
                                                    "bifurcate", "control"):
            raise ConfigError("--system is required")
        return args.fn(args)
    except (ConfigError, DatasetError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except benchmarks.UndefinedSplit as err:
        print(f"config error: {err}; the analytic split cannot serve this run, "
              f"use a trained --field instead of --oracle", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteError, training.TrainingDiverged) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
