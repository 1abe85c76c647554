"""Per-layer metrics of the traced run: work counters hooked onto traced
functions, and the reduction of spans and counters to named metrics.

Group self times sum the self time of every span in the group; group call
counts are entries into the group, so a group function calling another
counts once. NOTES.md maps each metric to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

from tracer import SpanStats, Tracer

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("nnet.forward.calls", "count", "lower"),
    ("nnet.forward.rows", "count", "lower"),
    ("nnet.forward.self_s", "s", "lower"),
    ("nnet.backward.calls", "count", "lower"),
    ("nnet.backward.self_s", "s", "lower"),
    ("nnet.rows_per_call", "rows", "higher"),
    ("nnet.flop", "flop", "lower"),
    ("nnet.gflop_per_s", "GFLOP/s", "higher"),
    ("nnet.adam.calls", "count", "lower"),
    ("nnet.adam.self_s", "s", "lower"),
    ("field.velocity.calls", "count", "lower"),
    ("field.velocity.self_s", "s", "lower"),
    ("field.vjp.calls", "count", "lower"),
    ("field.vjp.self_s", "s", "lower"),
    ("field.target.calls", "count", "lower"),
    ("field.target.self_s", "s", "lower"),
    ("integrate.rk4.steps", "count", "lower"),
    ("integrate.rk4.self_s", "s", "lower"),
    ("integrate.unrolled.steps", "count", "lower"),
    ("integrate.unrolled.self_s", "s", "lower"),
    ("integrate.csv_write.rows", "count", "lower"),
    ("integrate.csv_write.self_s", "s", "lower"),
    ("integrate.csv_read.rows", "count", "lower"),
    ("integrate.csv_read.self_s", "s", "lower"),
    ("training.batch.calls", "count", "lower"),
    ("training.batch.self_s", "s", "lower"),
    ("training.epoch_loss.calls", "count", "lower"),
    ("training.epoch_loss.self_s", "s", "lower"),
    ("training.epoch_loss_share", "ratio", "lower"),
    ("training.reforward_share", "ratio", "lower"),
    ("training.final_loss", "loss", "lower"),
    ("benchmarks.gen_dataset.self_s", "s", "lower"),
    ("benchmarks.rhs.calls", "count", "lower"),
    ("benchmarks.rhs.self_s", "s", "lower"),
    ("benchmarks.sample_targets.self_s", "s", "lower"),
    ("analysis.root_find.calls", "count", "lower"),
    ("analysis.root_find.self_s", "s", "lower"),
    ("analysis.residual.calls", "count", "lower"),
    ("analysis.roots", "count", "higher"),
    ("analysis.residual_per_root", "calls", "lower"),
    ("analysis.stability.calls", "count", "lower"),
    ("analysis.stability.self_s", "s", "lower"),
    ("analysis.tipping_err", "control", "lower"),
    ("control.steps", "count", "lower"),
    ("control.simulate.self_s", "s", "lower"),
    ("control.grad.calls", "count", "lower"),
    ("control.grad.self_s", "s", "lower"),
    ("control.gate.self_s", "s", "lower"),
    ("control.nrmse_mean", "ratio", "lower"),
    ("cli.gen_data.self_s", "s", "lower"),
    ("cli.train.self_s", "s", "lower"),
    ("cli.bifurcate.self_s", "s", "lower"),
    ("cli.control.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

# per-layer metrics that are outputs of the workload's commands, not spans
QUALITY = {"training.final_loss": "final_loss", "analysis.tipping_err": "tipping_err",
           "control.nrmse_mean": "nrmse_mean"}

_MACS: dict[object, int] = {}


def _macs(spec) -> int:
    """Multiply-adds per row of one MLP pass, from its layer shapes."""
    if spec not in _MACS:
        sizes = spec.layer_sizes
        _MACS[spec] = sum(a * b for a, b in zip(sizes, sizes[1:]))
    return _MACS[spec]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _after_forward(tracer, args, kwargs, result):
    rows = _arg(args, kwargs, 2, "x2d").shape[0]
    tracer.add("nnet.forward.rows", rows)
    tracer.add("nnet.flop", 2 * rows * _macs(args[0]))


def _after_backward(tracer, args, kwargs, result):
    # two products per layer: the weight gradient and the input gradient
    rows = _arg(args, kwargs, 2, "cotangent2d").shape[0]
    tracer.add("nnet.flop", 4 * rows * _macs(args[0]))


def _steps_counter(counter, pos):
    def after(tracer, args, kwargs, result):
        tracer.add(counter, _arg(args, kwargs, pos, "grid").n_steps)
    return after


def _after_csv_write(tracer, args, kwargs, result):
    trajs = _arg(args, kwargs, 1, "trajectories")
    tracer.add("integrate.csv_write.rows", sum(len(t.times) for t in trajs))


def _after_csv_read(tracer, args, kwargs, result):
    tracer.add("integrate.csv_read.rows", sum(len(t.times) for t in result))


def _before_root_find(tracer, args, kwargs):
    """Count residual evaluations by wrapping the callable passed in."""
    inner = _arg(args, kwargs, 0, "residual_fn")

    def counted(x):
        tracer.add("analysis.residual.calls")
        return inner(x)

    if "residual_fn" in kwargs:
        return args, {**kwargs, "residual_fn": counted}
    return (counted, *args[1:]), kwargs


def _after_root_find(tracer, args, kwargs, result):
    tracer.add("analysis.roots", len(result))


HOOKS = {
    "nnet.forward_cached": (None, _after_forward),
    "nnet.backward_from_cache": (None, _after_backward),
    "integrate.rk4_solve_batch": (None, _steps_counter("integrate.rk4.steps", 3)),
    "integrate.rk4_solve_unrolled_grad": (None, _steps_counter("integrate.unrolled.steps", 3)),
    "integrate.write_trajectories_csv": (None, _after_csv_write),
    "integrate.read_trajectories_csv": (None, _after_csv_read),
    "analysis.find_equilibria_1d": (_before_root_find, _after_root_find),
    "control.feedback_simulate": (None, _steps_counter("control.steps", 6)),
}

NNET_FORWARD = ("nnet.forward_cached", "nnet.mlp_forward")
NNET_BACKWARD = ("nnet.backward_from_cache", "nnet.mlp_backward")
VELOCITY = ("field.eval_velocity", "field.velocity_cached")
VJP = ("field.velocity_vjp_cached", "field.velocity_vjp", "field.velocity_param_vjp",
       "field.target_vjp")
TARGET = ("field.eval_target", "field.residual")
RK4 = ("integrate.rk4_solve_batch", "integrate.rk4_solve", "integrate.rk4_step_batch")
BATCH = ("training.TrajMatchingObjective.loss_and_grad",
         "training.GradMatchingObjective.loss_and_grad")
EPOCH_LOSS = ("training.TrajMatchingObjective.loss", "training.GradMatchingObjective.loss")
ROOT_FIND = ("analysis.find_equilibria_1d", "analysis.find_equilibria_nd")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition; the caller adds the quality
    figures and the tracing overhead."""
    st = SpanStats.of(tracer)
    n = tracer.counts.get
    fwd_calls = st.calls(*NNET_FORWARD)
    nnet_s = st.self_s(*NNET_FORWARD) + st.self_s(*NNET_BACKWARD)
    residual_calls = n("analysis.residual.calls", 0)
    return {
        "nnet.forward.calls": fwd_calls,
        "nnet.forward.rows": n("nnet.forward.rows", 0),
        "nnet.forward.self_s": st.self_s(*NNET_FORWARD),
        "nnet.backward.calls": st.calls(*NNET_BACKWARD),
        "nnet.backward.self_s": st.self_s(*NNET_BACKWARD),
        "nnet.rows_per_call": _ratio(n("nnet.forward.rows", 0), fwd_calls),
        "nnet.flop": n("nnet.flop", 0),
        "nnet.gflop_per_s": _ratio(n("nnet.flop", 0), nnet_s) * 1e-9,
        "nnet.adam.calls": st.calls("nnet.adam_step"),
        "nnet.adam.self_s": st.self_s("nnet.adam_step", "nnet.adam_init"),
        "field.velocity.calls": st.calls(*VELOCITY),
        "field.velocity.self_s": st.self_s(*VELOCITY),
        "field.vjp.calls": st.calls(*VJP),
        "field.vjp.self_s": st.self_s(*VJP),
        "field.target.calls": st.calls(*TARGET),
        "field.target.self_s": st.self_s(*TARGET),
        "integrate.rk4.steps": n("integrate.rk4.steps", 0),
        "integrate.rk4.self_s": st.self_s(*RK4),
        "integrate.unrolled.steps": n("integrate.unrolled.steps", 0),
        "integrate.unrolled.self_s": st.self_s("integrate.rk4_solve_unrolled_grad"),
        "integrate.csv_write.rows": n("integrate.csv_write.rows", 0),
        "integrate.csv_write.self_s": st.self_s("integrate.write_trajectories_csv"),
        "integrate.csv_read.rows": n("integrate.csv_read.rows", 0),
        "integrate.csv_read.self_s": st.self_s("integrate.read_trajectories_csv"),
        "training.batch.calls": st.calls(*BATCH),
        "training.batch.self_s": st.self_s(*BATCH),
        "training.epoch_loss.calls": st.calls(*EPOCH_LOSS),
        "training.epoch_loss.self_s": st.self_s(*EPOCH_LOSS),
        "training.epoch_loss_share": _ratio(st.total_s(*EPOCH_LOSS), st.total_s("training.train")),
        "training.reforward_share": _ratio(st.total_within_s(("integrate.rk4_solve_batch",), BATCH),
                                           st.total_s(*BATCH)),
        "benchmarks.gen_dataset.self_s": st.self_s("benchmarks.gen_dataset"),
        "benchmarks.rhs.calls": st.calls("benchmarks.system_rhs"),
        "benchmarks.rhs.self_s": st.self_s("benchmarks.system_rhs"),
        "benchmarks.sample_targets.self_s": st.self_s("benchmarks.sample_targets"),
        "analysis.root_find.calls": st.calls(*ROOT_FIND),
        "analysis.root_find.self_s": st.self_s(*ROOT_FIND),
        "analysis.residual.calls": residual_calls,
        "analysis.roots": n("analysis.roots", 0),
        "analysis.residual_per_root": _ratio(residual_calls, n("analysis.roots", 0)),
        "analysis.stability.calls": st.calls("analysis.classify_stability"),
        "analysis.stability.self_s": st.self_s("analysis.classify_stability"),
        "control.steps": n("control.steps", 0),
        "control.simulate.self_s": st.self_s("control.feedback_simulate"),
        "control.grad.calls": st.calls("control.control_objective_grad"),
        "control.grad.self_s": st.self_s("control.control_objective_grad"),
        "control.gate.self_s": st.self_s("control.control_gate", "control.smooth_heaviside"),
        "cli.gen_data.self_s": st.self_s("cli.cmd_gen_data"),
        "cli.train.self_s": st.self_s("cli.cmd_train"),
        "cli.bifurcate.self_s": st.self_s("cli.cmd_bifurcate"),
        "cli.control.self_s": st.self_s("cli.cmd_control"),
        "trace.spans": len(tracer.start),
    }
