import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from stabledyn import benchmarks, cli, control, field, nnet, training
from stabledyn.benchmarks import (
    BUDWORM,
    SYM_HYSTERESIS,
    TOGGLE_SWITCH,
    TWO_TANKS,
    DataProtocol,
    gen_dataset,
    save_dataset,
)
from stabledyn.cli import EXIT_CONFIG, EXIT_OK, main
from stabledyn.integrate import Trajectory, read_trajectories_csv
from stabledyn.nnet import init_params
from util import CHECKPOINT


@pytest.fixture()
def tiny_dataset(tmp_path):
    proto = DataProtocol(
        np.linspace(-1.5, 1.5, 4)[:, None],
        np.linspace(-0.5, 0.5, 3)[:, None],
        horizon=0.25,
        samples_per_traj=6,
    )
    ds = gen_dataset(SYM_HYSTERESIS, proto)
    prefix = tmp_path / "tiny"
    save_dataset(prefix, ds, proto, 1)
    return prefix


class TestGenData:
    def test_hysteresis_trajectory_count(self, tmp_path, capsys):
        rc = main(["gen-data", "--system", "sym-hysteresis", "--out", str(tmp_path),
                   "--samples", "4"])
        assert rc == EXIT_OK
        assert "2601 trajectories" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "sym-hysteresis-data.json").read_text())
        assert manifest["n_trajectories"] == 2601

    def test_tanks_trajectory_count(self, tmp_path, capsys):
        rc = main(["gen-data", "--system", "two-tanks", "--out", str(tmp_path),
                   "--samples", "3"])
        assert rc == EXIT_OK
        assert "1701 trajectories" in capsys.readouterr().out

    @pytest.mark.parametrize("system", ["toggle-switch", "budworm"])
    def test_few_samples_keep_the_rk4_step(self, tmp_path, system):
        # three samples once meant three RK4 steps per horizon: toggle states
        # reached 1e26 and budworm overflowed
        assert main(["gen-data", "--system", system, "--out", str(tmp_path),
                     "--samples", "3"]) == EXIT_OK
        states = np.concatenate([t.states for t in
                                 benchmarks.load_dataset(tmp_path / f"{system}-data")
                                 .trajectories])
        box = np.array(benchmarks.SYSTEM_BOX[system])
        assert np.all(states >= box[:, 0]) and np.all(states <= box[:, 1])

    def test_missing_output_dir(self, tmp_path):
        rc = main(["gen-data", "--system", "budworm", "--out", str(tmp_path / "nope")])
        assert rc == EXIT_CONFIG

    def test_unknown_system(self, tmp_path):
        assert main(["gen-data", "--system", "pendulum", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        for out in (a, b):
            assert main(["gen-data", "--system", "budworm", "--out", str(out),
                         "--samples", "4", "--seed", "3"]) == EXIT_OK
        assert (a / "budworm-data.csv").read_bytes() == (b / "budworm-data.csv").read_bytes()
        assert (a / "budworm-data.json").read_bytes() == (b / "budworm-data.json").read_bytes()

    def test_solve_too_large_is_refused(self, tmp_path, capsys):
        # 2601 trajectories of 10^9 samples once ended in a MemoryError
        # traceback (exit 1) from the solve
        assert main(["gen-data", "--system", "sym-hysteresis", "--out", str(tmp_path),
                     "--samples", "1000000000"]) == EXIT_CONFIG
        assert "--samples 1000000000" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_step_count_past_float_range_is_refused(self, tmp_path, capsys):
        # 10^400 samples once overflowed the grid's step (exit 1); the count
        # is exact, so the refusal comes before any float holds it
        assert main(["gen-data", "--system", "budworm", "--out", str(tmp_path),
                     "--samples", str(10**400)]) == EXIT_CONFIG
        assert _step_count(capsys.readouterr().err) == "1.00e+400"
        assert list(tmp_path.iterdir()) == []


def _step_count(err: str) -> str:
    """The RK4 step count a refusal message names."""
    return re.search(r"takes (\S+) RK4 steps", err).group(1)


class TestTrain:
    def test_train_writes_checkpoint_and_report(self, tiny_dataset, tmp_path, capsys):
        rc = main(["train", "--system", "sym-hysteresis", "--data", str(tiny_dataset),
                   "--out", str(tmp_path), "--epochs", "2", "--restarts", "1"])
        assert rc == EXIT_OK
        assert (tmp_path / "sym-hysteresis-field.json").exists()
        report = json.loads((tmp_path / "sym-hysteresis-train-report.json").read_text())
        assert len(report["loss_history"]) == 2
        assert np.isfinite(report["best_loss"])

    def test_train_requires_dataset(self, tmp_path):
        rc = main(["train", "--system", "sym-hysteresis", "--out", str(tmp_path),
                   "--epochs", "1"])
        assert rc == EXIT_CONFIG

    def test_deterministic_checkpoints(self, tiny_dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        for out in (a, b):
            assert main(["train", "--system", "sym-hysteresis", "--data", str(tiny_dataset),
                         "--out", str(out), "--epochs", "2", "--seed", "5"]) == EXIT_OK
        assert (a / "sym-hysteresis-field.json").read_bytes() == \
            (b / "sym-hysteresis-field.json").read_bytes()

    def test_restarts_keep_the_best_seed(self, tiny_dataset, tmp_path, monkeypatch):
        seeds = []
        train = training.train

        def recorded(fld, objective, config, val_objective=None):
            seeds.append(config.seed)
            return train(fld, objective, config, val_objective)

        monkeypatch.setattr(training, "train", recorded)
        runs = {}
        for name, extra in (("both", ["--seed", "5", "--restarts", "2"]),
                            ("first", ["--seed", "5"]), ("second", ["--seed", "1005"])):
            out = tmp_path / name
            out.mkdir()
            assert main(["train", "--system", "sym-hysteresis", "--data", str(tiny_dataset),
                         "--out", str(out), "--epochs", "2", *extra]) == EXIT_OK
            report = json.loads((out / "sym-hysteresis-train-report.json").read_text())
            report.pop("wall_time_s")
            runs[name] = (report, (out / "sym-hysteresis-field.json").read_bytes())
        # the restart seeds are seed + 1000 r, and the lower best loss wins
        assert seeds == [5, 1005, 5, 1005]
        best = min(("first", "second"), key=lambda name: runs[name][0]["best_loss"])
        assert runs["first"][0]["best_loss"] != runs["second"][0]["best_loss"]
        assert runs["both"] == runs[best]

    @pytest.mark.parametrize("system", [SYM_HYSTERESIS, TWO_TANKS])  # traj and grad matching
    def test_parsed_dataset_is_freed_before_training(self, tmp_path, monkeypatch, system):
        proto = benchmarks.default_protocol(system, samples_per_traj=3)
        prefix = tmp_path / "data"
        save_dataset(prefix, gen_dataset(system, proto), proto, None)
        tables = []
        load, train = benchmarks.load_dataset, training.train

        def loaded(prefix):
            dataset = load(prefix)
            table = dataset.trajectories[0].states
            while table.base is not None:
                table = table.base
            tables.append(weakref.ref(table))
            return dataset

        def checked(*args, **kwargs):
            assert [ref() for ref in tables] == [None]
            return train(*args, **kwargs)

        monkeypatch.setattr(benchmarks, "load_dataset", loaded)
        monkeypatch.setattr(training, "train", checked)
        assert main(["train", "--data", str(prefix), "--out", str(tmp_path), "--epochs",
                     "1"]) == EXIT_OK

    def test_restarts_share_one_objective(self, tiny_dataset, tmp_path, monkeypatch):
        built = []
        make_objective = training.make_objective

        def counted(config, trajectories):
            built.append(len(trajectories))
            return make_objective(config, trajectories)

        monkeypatch.setattr(training, "make_objective", counted)
        assert main(["train", "--data", str(tiny_dataset), "--out", str(tmp_path), "--epochs",
                     "1", "--restarts", "3"]) == EXIT_OK
        assert built == [12]


# argv: out, system, objective class, batch size, then extra train
# arguments. A gen-data of the system at its default 51 samples and a
# 1-epoch train, then one batch of the objective on the untrained field,
# written as its loss and gradient bytes
_THREAD_RUN = """
import sys
import numpy as np
from stabledyn import benchmarks, training
from stabledyn.cli import main

out, system, objective, batch = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
assert main(["gen-data", "--system", system, "--out", out]) == 0
data = f"{out}/{system}-data"
assert main(["train", "--data", data, "--epochs", "1", "--out", out, *sys.argv[5:]]) == 0
objective = getattr(training, objective)(benchmarks.load_dataset(data).trajectories)
batch = np.random.default_rng(0).permutation(objective.n_traj)[:batch]
loss, grad = objective.loss_and_grad(benchmarks.make_untrained_field(system, 0), batch)
with open(out + "/batch.bin", "wb") as fh:
    fh.write(np.float64(loss).tobytes() + grad.tobytes())
"""


class TestBlasThreadCount:
    def test_gradient_matching_has_the_same_bits_at_one_and_two_threads(self, tmp_path):
        # a 2,550-row batch ran as one product, which OpenBLAS rounds by its
        # thread count; row blocks of at most 1,024 rows do not
        _assert_same_bits_at_one_and_two_threads(tmp_path, "two-tanks",
                                                 "GradMatchingObjective", 50)

    def test_trajectory_matching_has_the_same_bits_at_one_and_two_threads(self, tmp_path):
        # a 100-trajectory batch of 50 steps re-linearized its RK4 stages in
        # 5,000-row products; step blocks of at most 1,024 rows do not. At
        # this size the whole-batch products wrote different checkpoints at
        # 1 and 2 threads; 11 samples at batches of 200 did not
        _assert_same_bits_at_one_and_two_threads(tmp_path, "sym-hysteresis",
                                                 "TrajMatchingObjective", 100,
                                                 "--batch-size", "100")


def _assert_same_bits_at_one_and_two_threads(tmp_path, system, objective, batch, *train_args):
    """Run `_THREAD_RUN` in child processes at OPENBLAS_NUM_THREADS=1 and 2
    and compare the batch bytes, the checkpoints and the train reports."""
    src = str(Path(benchmarks.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    runs = {}
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        runs[threads] = subprocess.Popen(
            [sys.executable, "-c", _THREAD_RUN, str(tmp_path / threads), system, objective,
             str(batch), *train_args], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    for proc in runs.values():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    one, two = tmp_path / "1", tmp_path / "2"
    assert (one / "batch.bin").read_bytes() == (two / "batch.bin").read_bytes()
    name = f"{system}-field.json"
    assert (one / name).read_bytes() == (two / name).read_bytes()
    reports = [json.loads((out / f"{system}-train-report.json").read_text())
               for out in (one, two)]
    for report in reports:
        del report["wall_time_s"]
    assert reports[0] == reports[1]


def _edit_state(prefix):
    csv = prefix.with_suffix(".csv")
    lines = csv.read_text().splitlines(keepends=True)
    cells = lines[3].split(",")
    cells[2] = repr(float(cells[2]) + 0.1)
    lines[3] = ",".join(cells)
    csv.write_text("".join(lines))


def _edit_manifest(edit):
    def corrupt(prefix):
        path = prefix.with_suffix(".json")
        path.write_text(edit(path.read_text()))
    return corrupt


def _content_hash(csv):
    with open(csv, "rb") as fh:
        return benchmarks._git_blob_sha1(fh)


def _rehash(prefix):
    """Record the CSV's current content hash in the manifest."""
    manifest = json.loads(prefix.with_suffix(".json").read_text())
    manifest["content_hash"] = _content_hash(prefix.with_suffix(".csv"))
    prefix.with_suffix(".json").write_text(json.dumps(manifest))


def _append_rehashed(row):
    def corrupt(prefix):
        csv = prefix.with_suffix(".csv")
        csv.write_text(csv.read_text() + row)
        _rehash(prefix)
    return corrupt


class TestDatasetIntegrity:
    @pytest.mark.parametrize("corrupt,reason", [
        (_edit_state, "content_hash"),
        (_edit_manifest(lambda text: json.dumps(
            {k: v for k, v in json.loads(text).items() if k != "system"})), "KeyError"),
        (_edit_manifest(lambda text: text[:-5]), "JSONDecodeError"),
        (_append_rehashed("7,not-a-number\n"), "ValueError"),
        (_append_rehashed("99\n"), "expected 4 cells, found 1"),
    ], ids=["hash-mismatch", "no-system", "invalid-json", "malformed-row", "short-row"])
    def test_config_error(self, tiny_dataset, tmp_path, capsys, corrupt, reason):
        corrupt(tiny_dataset)
        rc = main(["train", "--data", str(tiny_dataset), "--out", str(tmp_path),
                   "--epochs", "1"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot load dataset" in err and reason in err

    @pytest.mark.parametrize("row,reason", [
        ("\n", "is blank"),
        ("1.5,0,0,0\n", "not an integer"),
    ], ids=["blank-row", "non-integer-id"])
    def test_rejected_row_is_config_error(self, tiny_dataset, tmp_path, capsys, row, reason):
        _append_rehashed(row)(tiny_dataset)
        rc = main(["train", "--data", str(tiny_dataset), "--out", str(tmp_path),
                   "--epochs", "1"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot load dataset" in err and "line 74" in err and reason in err

    def test_control_changing_within_a_trajectory_is_config_error(self, tiny_dataset, tmp_path,
                                                                  capsys):
        # the third row of trajectory 0 gets another u: once trained on the
        # first row's control, exit 0
        csv = tiny_dataset.with_suffix(".csv")
        lines = csv.read_text().splitlines(keepends=True)
        cells = lines[3].rstrip("\n").split(",")
        assert cells[0] == "0"
        cells[-1] = repr(float(cells[-1]) + 0.1)
        lines[3] = ",".join(cells) + "\n"
        csv.write_text("".join(lines))
        _rehash(tiny_dataset)
        rc = main(["train", "--data", str(tiny_dataset), "--out", str(tmp_path),
                   "--epochs", "1"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot load dataset" in err
        assert "trajectory 0 changes its control between rows" in err
        assert not (tmp_path / "sym-hysteresis-field.json").exists()


class TestManifestKeys:
    @pytest.mark.parametrize("edit", ["deleted", "junk"])
    def test_only_system_and_content_hash_are_read(self, tiny_dataset, tmp_path, edit):
        # params, protocol, seed and n_trajectories describe the data; no
        # command reads them, so neither their absence nor their values
        # change a run
        def run(name):
            out = tmp_path / name
            out.mkdir()
            assert main(["train", "--data", str(tiny_dataset), "--out", str(out),
                         "--epochs", "1"]) == EXIT_OK
            report = json.loads((out / "sym-hysteresis-train-report.json").read_text())
            del report["wall_time_s"]
            return (out / "sym-hysteresis-field.json").read_bytes(), report

        clean = run("clean")
        path = tiny_dataset.with_suffix(".json")
        manifest = json.loads(path.read_text())
        for key, junk in (("params", "x"), ("protocol", [1]), ("seed", "y"),
                          ("n_trajectories", -3)):
            if edit == "deleted":
                del manifest[key]
            else:
                manifest[key] = junk
        path.write_text(json.dumps(manifest))
        assert run(edit) == clean


def _save_trajectories(tmp_path, system, trajectories):
    prefix = tmp_path / "custom"
    save_dataset(prefix, benchmarks.Dataset(system, trajectories),
                 benchmarks.default_protocol(system), None)
    out = tmp_path / "out"
    out.mkdir()
    return prefix, out


def _save_csv_text(tmp_path, system, text):
    """A dataset whose CSV is `text`, with a manifest whose hash matches."""
    prefix, out = tmp_path / "custom", tmp_path / "out"
    prefix.with_suffix(".csv").write_text(text)
    prefix.with_suffix(".json").write_text(json.dumps({
        "system": system, "params": benchmarks.default_params(system),
        "content_hash": _content_hash(prefix.with_suffix(".csv"))}))
    out.mkdir()
    return prefix, out


class TestUnusableData:
    """Data that loads but cannot serve the run exits 2 and writes nothing."""

    def _run(self, capsys, out, argv):
        rc = main([*argv, "--out", str(out), "--epochs", "1", "--restarts", "1"])
        assert rc == EXIT_CONFIG
        assert list(out.iterdir()) == []
        return capsys.readouterr().err

    def test_more_folds_than_trajectories(self, tmp_path, capsys):
        trajs = [Trajectory([0.0, 0.1], [[0.5], [0.6]], [0.2], traj_id=i) for i in range(3)]
        prefix, out = _save_trajectories(tmp_path, SYM_HYSTERESIS, trajs)
        err = self._run(capsys, out, ["cv", "--data", str(prefix), "--folds", "10"])
        assert "config error: cannot split 3 trajectories into 10 folds" in err

    def test_single_sample_trajectories_in_gradient_matching(self, tmp_path, capsys):
        trajs = [Trajectory([0.0], [[0.5]], [6.0], traj_id=i) for i in range(3)]
        prefix, out = _save_trajectories(tmp_path, BUDWORM, trajs)
        err = self._run(capsys, out, ["train", "--data", str(prefix)])
        assert "config error: trajectory 0: finite differences need at least 2" in err

    def test_uneven_times_in_trajectory_matching(self, tmp_path, capsys):
        times = [0.0, 0.02, 0.05, 0.1, 0.2, 0.25]
        trajs = [Trajectory(np.linspace(0.0, 0.25, 6), np.full(6, 0.5), [0.2], traj_id=0),
                 Trajectory(times, np.full(6, 0.5), [0.2], traj_id=7)]
        prefix, out = _save_trajectories(tmp_path, SYM_HYSTERESIS, trajs)
        err = self._run(capsys, out, ["train", "--data", str(prefix)])
        assert "config error: trajectory 7 is not evenly spaced" in err

    @pytest.mark.parametrize("command,system", [("train", SYM_HYSTERESIS), ("cv", BUDWORM)],
                             ids=["nan-state", "inf-control"])  # traj and grad matching
    def test_non_finite_data(self, tmp_path, capsys, command, system):
        # refused before any batch runs, not as a non-finite loss mid-training
        trajs = [Trajectory([0.0, 0.1, 0.2], [[0.5], [0.6], [0.7]], [0.2], traj_id=i)
                 for i in range(4)]
        if system == SYM_HYSTERESIS:
            trajs[2].states[1, 0] = np.nan
        else:
            trajs[3].control[0] = np.inf
        prefix, out = _save_trajectories(tmp_path, system, trajs)
        argv = [command, "--data", str(prefix)] + (["--folds", "2"] if command == "cv" else [])
        err = self._run(capsys, out, argv)
        bad = 2 if system == SYM_HYSTERESIS else 3
        assert f"config error: trajectory {bad} has a non-finite state or control" in err

    @pytest.mark.parametrize("system", [SYM_HYSTERESIS, BUDWORM])  # traj and grad matching
    def test_no_trajectories(self, tmp_path, capsys, system):
        prefix, out = _save_csv_text(tmp_path, system, "traj_id,t,x_0,u_0\n")
        err = self._run(capsys, out, ["train", "--data", str(prefix)])
        assert "config error: no trajectories to match" in err

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_rows_of_another_systems_dims(self, tmp_path, capsys, command):
        # the content hash covers the CSV only, so a manifest may name a
        # system whose dims its rows lack: here two-tanks rows
        trajs = [Trajectory([0.0, 0.1, 0.2], np.full((3, 2), 0.5 + 0.1 * i), [0.2, 0.3],
                            traj_id=i) for i in range(4)]
        prefix, out = _save_trajectories(tmp_path, SYM_HYSTERESIS, trajs)
        argv = [command, "--data", str(prefix)] + (["--folds", "2"] if command == "cv" else [])
        err = self._run(capsys, out, argv)
        assert (f"config error: dataset {str(prefix)!r} has (state, control) dims (2, 2); "
                f"sym-hysteresis needs (1, 1)") in err

    def test_control_reads_no_rows_of_another_systems_dims(self, tmp_path, capsys):
        # budworm rows as toggle data once gave a summary whose nRMSE divided
        # by a 1-d IQR broadcast over both toggle dims
        trajs = [Trajectory([0.0, 0.5, 1.0], [[1.0 + i], [2.0 + i], [3.0 + i]], [6.0],
                            traj_id=i) for i in range(3)]
        prefix, out = _save_trajectories(tmp_path, TOGGLE_SWITCH, trajs)
        rc = main(["control", "--system", TOGGLE_SWITCH, "--oracle", "--data", str(prefix),
                   "--out", str(out), "--targets", "1", "--trials", "1",
                   "--t-per-target", "1"])
        assert rc == EXIT_CONFIG
        assert list(out.iterdir()) == []
        assert "(state, control) dims (1, 1); toggle-switch needs (2, 4)" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("rows", [0, 1, 4], ids=["no-rows", "one-row", "equal-rows"])
    def test_toggle_states_without_a_positive_iqr(self, tmp_path, capsys, rows):
        # toggle control scores by the IQR of the dataset's states, so it
        # refuses data without a positive one before any trial runs
        if rows == 0:
            prefix, out = _save_csv_text(tmp_path, TOGGLE_SWITCH,
                                         "traj_id,t,x_0,x_1,u_0,u_1,u_2,u_3\n")
        else:
            trajs = [Trajectory(0.5 * np.arange(rows), np.full((rows, 2), 1.5), [2.5] * 4)]
            prefix, out = _save_trajectories(tmp_path, TOGGLE_SWITCH, trajs)
        rc = main(["control", "--system", TOGGLE_SWITCH, "--oracle", "--data", str(prefix),
                   "--out", str(out), "--targets", "1", "--trials", "1",
                   "--t-per-target", "1"])
        assert rc == EXIT_CONFIG
        assert list(out.iterdir()) == []
        err = capsys.readouterr().err
        assert "config error:" in err and "IQR" in err


class TestCv:
    def test_candidate_builders_match_make_untrained_field(self, tiny_dataset, tmp_path,
                                                           monkeypatch):
        seen = []

        def capture(trajectories, candidates, config, cv_epochs=None):
            seen.extend(candidates)
            return training.CvReport([], "default", None)

        monkeypatch.setattr(training, "cross_validate", capture)
        assert main(["cv", "--data", str(tiny_dataset), "--out", str(tmp_path)]) == EXIT_OK
        recipes = benchmarks.candidate_models(SYM_HYSTERESIS)
        assert [name for name, _ in seen] == [name for name, _ in recipes]
        for (_, builder), (_, recipe) in zip(seen, recipes):
            for seed in (0, 7):
                built = builder(seed)
                ref = benchmarks.make_untrained_field(SYM_HYSTERESIS, seed, recipe)
                assert built.decay_spec == recipe.decay_spec
                assert built.target_spec == recipe.target_spec
                assert np.array_equal(built.decay_params, ref.decay_params)
                assert np.array_equal(built.target_params, ref.target_params)
                assert np.array_equal(built.decay_params, init_params(recipe.decay_spec, seed))
                assert np.array_equal(built.target_params,
                                      init_params(recipe.target_spec, seed + 1))
                assert built.featurizer == ref.featurizer

    def test_checkpoint_records_the_kept_restart_seed(self, tiny_dataset, tmp_path,
                                                      monkeypatch):
        # the retrain keeps the best of the restart seeds seed + 1000 r; here
        # the second one wins, and the checkpoint must name it
        seeds = []
        train = training.train

        def second_wins(fld, objective, config, val_objective=None):
            result = train(fld, objective, config, val_objective)
            if val_objective is None:
                seeds.append(config.seed)
                result.best_loss = -float(config.seed)
            return result

        monkeypatch.setattr(training, "train", second_wins)
        assert main(["cv", "--data", str(tiny_dataset), "--out", str(tmp_path), "--seed", "5",
                     "--epochs", "1", "--folds", "3", "--restarts", "2"]) == EXIT_OK
        assert seeds == [5, 1005]
        checkpoint = json.loads((tmp_path / "sym-hysteresis-field.json").read_text())
        assert checkpoint["decay"]["seed"] == checkpoint["target"]["seed"] == 1005

    def test_cv_emits_fold_table(self, tiny_dataset, tmp_path):
        rc = main(["cv", "--system", "sym-hysteresis", "--data", str(tiny_dataset),
                   "--out", str(tmp_path), "--epochs", "1", "--folds", "3",
                   "--restarts", "1"])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "sym-hysteresis-cv-report.json").read_text())
        assert len(report["candidates"]) >= 2
        for cand in report["candidates"]:
            assert len(cand["fold_losses"]) == 3
        assert report["selected"] in {c["name"] for c in report["candidates"]}


class TestSimulate:
    def test_oracle_simulation(self, tmp_path):
        rc = main(["simulate", "--system", "budworm", "--oracle", "--out", str(tmp_path),
                   "--samples", "5", "--limit", "7"])
        assert rc == EXIT_OK
        lines = (tmp_path / "budworm-simulate-oracle.csv").read_text().splitlines()
        assert lines[0] == "traj_id,t,x_0,u_0"
        assert len(lines) == 1 + 7 * 5

    @pytest.mark.parametrize("system,horizon,limit", [("toggle-switch", "1000", "20"),
                                                      ("budworm", "2000", "5")])
    def test_long_horizon_keeps_the_rk4_step(self, tmp_path, system, horizon, limit):
        # a stretched step once left the toggle box (x down to -5) and
        # overflowed budworm
        assert main(["simulate", "--system", system, "--oracle", "--out", str(tmp_path),
                     "--horizon", horizon, "--limit", limit]) == EXIT_OK
        trajs = read_trajectories_csv(tmp_path / f"{system}-simulate-oracle.csv")
        assert [len(t.times) for t in trajs] == [51] * int(limit)
        assert trajs[0].times[-1] == float(horizon)
        states = np.concatenate([t.states for t in trajs])
        box = np.array(benchmarks.SYSTEM_BOX[system])
        assert np.all(states >= box[:, 0]) and np.all(states <= box[:, 1])

    @pytest.mark.parametrize("system,horizon,limit,count", [
        ("budworm", "1e300", ["--limit", "1"], "1.00e+301"),
        ("toggle-switch", "10000", [], "40000"),
        ("sym-hysteresis", "1e306", ["--limit", "1"], "2.00e+308"),
        ("budworm", "1e308", ["--limit", "1"], "1.00e+309"),
    ], ids=["budworm-1e300", "toggle-whole-grid", "hysteresis-1e306", "budworm-1e308"])
    def test_solve_too_large_to_hold(self, tmp_path, capsys, system, horizon, limit, count):
        # refused before the solve starts: 1e300 once ran one huge step
        # (exit 3), and the whole toggle grid at 10000 takes 6561 x 40,000
        # RK4 steps, though it would hold only its sampled nodes (5.4 MB).
        # The count is exact and printed compactly: 1e300 once printed 302
        # digits, and past float range (1e306, 1e308) the grid's step once
        # raised OverflowError (exit 1)
        assert main(["simulate", "--system", system, "--oracle", "--out", str(tmp_path),
                     "--horizon", horizon, *limit]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "lower it or --limit" in err
        assert _step_count(err) == count
        assert list(tmp_path.iterdir()) == []

    def test_horizon_too_short_for_one_step(self, tmp_path, capsys):
        # the step (5e-324 / 50) underflows to 0: this once ran the solve and
        # then failed on equal sample times (exit 1)
        assert main(["simulate", "--system", "budworm", "--oracle", "--out", str(tmp_path),
                     "--horizon", "5e-324", "--limit", "1"]) == EXIT_CONFIG
        assert "not positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_requires_field_or_oracle(self, tmp_path):
        rc = main(["simulate", "--system", "budworm", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_missing_checkpoint(self, tmp_path, capsys):
        rc = main(["simulate", "--system", "budworm", "--field", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path), "--limit", "1"])
        assert rc == EXIT_CONFIG
        assert "cannot load field checkpoint" in capsys.readouterr().err


def _edited_checkpoint(edit):
    doc = json.loads(CHECKPOINT.read_text())
    edit(doc)
    return json.dumps(doc)


def _tanh(doc):
    doc["decay"]["activation"] = "tanh"


def _nan_weight(doc):
    doc["target"]["values"][0] = float("nan")


def _inf_featurizer(doc):
    # every cosine feature would be a constant
    doc["featurizer"]["a"] = -float("inf")


def _inf_bound(doc):
    doc["decay"]["bounds"][0] = -float("inf")


def _float_layer_sizes(doc):
    # once loaded as [1, 20, 20, 1]: truncated, and true read as 1
    doc["decay"]["layer_sizes"] = [1, 20.9, 20.5, True]


def _set(path, value):
    """An edit that sets the item at the key path, such as ("decay",
    "bounds") or ("decay", "bounds", 0), to value."""
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value

    return edit


# sections of the wrong JSON shape: each once ended in an AttributeError or
# IndexError traceback (exit 1), or loaded wrongly with exit 0 (a third bound
# ignored, false read as a bound of 0.0, the featurizer kept on by "no", true
# read as a = 1.0)
WRONG_SHAPES = [
    pytest.param(_edited_checkpoint(_set(("featurizer",), 5)), id="featurizer-number"),
    pytest.param(_edited_checkpoint(_set(("featurizer",), [])), id="featurizer-list"),
    pytest.param(_edited_checkpoint(_set(("decay",), 5)), id="decay-number"),
    pytest.param(_edited_checkpoint(_set(("decay", "bounds"), [-4])), id="one-bound"),
    pytest.param(_edited_checkpoint(_set(("decay", "bounds"), [-4, -0.1, 3])), id="three-bounds"),
    pytest.param(_edited_checkpoint(_set(("target", "bounds"), [False, 2])), id="boolean-bound"),
    pytest.param(_edited_checkpoint(_set(("featurizer", "enabled"), "no")), id="enabled-string"),
    pytest.param(_edited_checkpoint(_set(("featurizer", "a"), True)), id="boolean-a"),
    # an integer past float range once ended in an OverflowError traceback
    pytest.param(_edited_checkpoint(_set(("decay", "bounds"), [-10**400, -0.1])),
                 id="huge-integer-bound"),
    # each once loaded with exit 0: true read as 1.0, "0.25" parsed as 0.25
    pytest.param(_edited_checkpoint(_set(("target", "values", 0), True)), id="boolean-value"),
    pytest.param(_edited_checkpoint(_set(("decay", "values", 0), "0.25")), id="string-value"),
]


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("command", ["simulate", "equilibria", "bifurcate", "control"])
    @pytest.mark.parametrize("content", ['{"dim": 1}', "[1, 2]", "{not json", *WRONG_SHAPES,
                                         pytest.param(_edited_checkpoint(_tanh), id="tanh"),
                                         pytest.param(_edited_checkpoint(_nan_weight), id="nan"),
                                         pytest.param(_edited_checkpoint(_inf_featurizer),
                                                      id="inf-featurizer"),
                                         pytest.param(_edited_checkpoint(_inf_bound),
                                                      id="inf-bound"),
                                         pytest.param(_edited_checkpoint(_float_layer_sizes),
                                                      id="float-layer-sizes")])
    def test_config_error_in_every_command(self, tmp_path, capsys, command, content):
        path = tmp_path / "field.json"
        path.write_text(content)
        rc = main([command, "--system", "budworm", "--field", str(path),
                   "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "cannot load field checkpoint" in capsys.readouterr().err


# older checkpoints hold a domain box; no command reads it, so none of these
# may change a run (inf and boolean domains were once refused with exit 2)
DOMAIN_EDITS = {
    "reversed": _set(("domain",), [[1e308, 2.0]]),
    "null": _set(("domain",), None),
    "missing": lambda doc: doc.pop("domain"),
    "inf": _set(("domain", 0, 1), float("inf")),
    "boolean": _set(("domain", 0, 0), False),
}


class TestCheckpointDomainIgnored:
    @pytest.mark.parametrize("command,sizes", [
        ("bifurcate", ["--points", "21", "--scan", "40"]),
        ("control", ["--targets", "2", "--trials", "2", "--t-per-target", "1"]),
    ], ids=["bifurcate", "control"])
    @pytest.mark.parametrize("edit", sorted(DOMAIN_EDITS))
    def test_outputs_match_the_clean_checkpoint(self, tmp_path, capsys, command, sizes, edit):
        runs = []
        for name, text in (("clean", CHECKPOINT.read_text()),
                           (edit, _edited_checkpoint(DOMAIN_EDITS[edit]))):
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            out = tmp_path / name
            out.mkdir()
            rc = main([command, "--system", "sym-hysteresis", "--field", str(path),
                       "--out", str(out), *sizes])
            printed = capsys.readouterr()
            runs.append((rc, printed.out, printed.err,
                         {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        assert runs[0][0] == EXIT_OK and runs[0][3]
        assert runs[1] == runs[0]


class TestCheckpointNets:
    """A loaded checkpoint's nets are checked beyond their weights; each
    refusal exits 2 and writes nothing."""

    def _refused(self, tmp_path, capsys, command, text):
        path = tmp_path / "field.json"
        path.write_text(text)
        out = tmp_path / "out"
        out.mkdir()
        sizes = ["--targets", "1", "--trials", "1"] if command == "control" else []
        rc = main([command, "--system", "sym-hysteresis", "--field", str(path),
                   "--out", str(out), *sizes])
        assert rc == EXIT_CONFIG
        assert list(out.iterdir()) == []
        err = capsys.readouterr().err
        assert "cannot load field checkpoint" in err
        return err

    # each once loaded with exit 0: a net's seed was read by nothing and
    # checked by nothing
    @pytest.mark.parametrize("seed", [{}, "x", [1], True, 1.5],
                             ids=["object", "string", "list", "boolean", "float"])
    def test_non_integer_seed_is_refused(self, tmp_path, capsys, seed):
        err = self._refused(tmp_path, capsys, "bifurcate",
                            _edited_checkpoint(_set(("target", "seed"), seed)))
        assert f"each net seed must be a JSON integer, got {seed!r}" in err

    @pytest.mark.parametrize("command", ["bifurcate", "control"])
    def test_nets_of_other_hidden_widths_are_refused(self, tmp_path, capsys, command):
        # both nets run as one stack on a model axis, so their hidden layers
        # must match; the checked-in nets are (1, 20, 20, 1) and (6, 20, 20, 1)
        spec = nnet.MlpSpec((6, 32, 20, 1), output_bounds=(-2.0, 2.0))
        doc = json.loads(CHECKPOINT.read_text())
        doc["target"] = nnet.checkpoint_to_dict(spec, init_params(spec, 0), seed=3)
        err = self._refused(tmp_path, capsys, command, json.dumps(doc))
        assert "got [20, 20] for decay and [32, 20] for target" in err


def _checkpoint(tmp_path, system):
    path = tmp_path / f"{system}-untrained.json"
    field.save_field(path, benchmarks.make_untrained_field(system, 0))
    return path


class TestWrongSystem:
    @pytest.mark.parametrize("command", ["simulate", "equilibria", "bifurcate", "control"])
    def test_checkpoint_for_another_system(self, tmp_path, capsys, command):
        rc = main([command, "--system", "sym-hysteresis", "--out", str(tmp_path),
                   "--field", str(_checkpoint(tmp_path, "two-tanks"))])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "(2, 2); sym-hysteresis needs (1, 1)" in err

    def test_trained_checkpoint_for_another_system_with_the_same_dims(self, tiny_dataset,
                                                                       tmp_path, capsys):
        # sym-hysteresis and budworm both have one state and one control, so
        # only the recorded system tells them apart
        assert main(["train", "--system", "sym-hysteresis", "--data", str(tiny_dataset),
                     "--out", str(tmp_path), "--epochs", "1"]) == EXIT_OK
        path = tmp_path / "sym-hysteresis-field.json"
        assert json.loads(path.read_text())["system"] == "sym-hysteresis"
        rc = main(["control", "--system", "budworm", "--field", str(path), "--targets", "1",
                   "--trials", "1", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "was trained for 'sym-hysteresis', not 'budworm'" in capsys.readouterr().err
        # the system it was trained for runs it
        assert main(["equilibria", "--system", "sym-hysteresis", "--field", str(path),
                     "--out", str(tmp_path)]) == EXIT_OK

    def test_cv_checkpoint_records_its_system(self, tiny_dataset, tmp_path):
        assert main(["cv", "--data", str(tiny_dataset), "--out", str(tmp_path), "--epochs", "1",
                     "--folds", "2", "--restarts", "1"]) == EXIT_OK
        doc = json.loads((tmp_path / "sym-hysteresis-field.json").read_text())
        assert doc["system"] == "sym-hysteresis"

    @pytest.mark.parametrize("command", ["train", "cv", "control"])
    def test_dataset_for_another_system(self, tiny_dataset, tmp_path, capsys, command):
        argv = [command, "--data", str(tiny_dataset), "--out", str(tmp_path)]
        if command == "control":
            # toggle control reads the dataset for its IQR magnitude
            argv += ["--system", "toggle-switch",
                     "--field", str(_checkpoint(tmp_path, "toggle-switch"))]
        else:
            argv += ["--system", "budworm", "--epochs", "1"]
        rc = main(argv)
        assert rc == EXIT_CONFIG
        assert "is 'sym-hysteresis' data, not" in capsys.readouterr().err


class TestShortTargetWindow:
    @pytest.mark.parametrize("system,extra,scored,named", [
        # 80 steps per target, one record in 20: 4 records each
        ("two-tanks", ["--t-per-target", "20", "--targets", "2"], 2, ()),
        # only t = 0 is recorded, so the second target would have no node:
        # the run is refused and writes nothing
        ("sym-hysteresis", ["--t-per-target", "1", "--targets", "2",
                            "--record-every", "100000"], None,
         ("--record-every", "--t-per-target")),
        # 2 x 0.0001 rounds to 0 steps of 0.005: no step would run
        ("sym-hysteresis", ["--t-per-target", "0.0001", "--targets", "2"], None,
         ("--t-per-target",)),
    ], ids=["four-records", "one-record", "no-step"])
    def test_scores_the_last_recorded_node(self, tmp_path, capsys, system, extra, scored,
                                           named):
        rc = main(["control", "--system", system, "--out", str(tmp_path), "--trials", "1",
                   "--field", str(_checkpoint(tmp_path, system)), *extra])
        summary_path = tmp_path / f"{system}-control-summary.json"
        if scored is None:
            assert rc == EXIT_CONFIG
            err = capsys.readouterr().err
            assert all(flag in err for flag in named)
            assert not summary_path.exists()
            assert not (tmp_path / f"{system}-control-trials.csv").exists()
            return
        assert rc == EXIT_OK
        summary = json.loads(summary_path.read_text())
        assert len(summary["per_target"]) == scored


class TestEquilibria:
    def test_oracle_hysteresis_roots(self, tmp_path):
        rc = main(["equilibria", "--system", "sym-hysteresis", "--oracle",
                   "--control", "0.0", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "sym-hysteresis-equilibria.json").read_text())
        xs = sorted(row[0] for row in doc["equilibria"])
        assert xs == pytest.approx([-1.0, 0.0, 1.0], abs=1e-8)
        stabilities = {round(row[0]): row[1] for row in doc["equilibria"]}
        assert stabilities[-1] == "stable"
        assert stabilities[0] == "unstable"

    def test_tanks_oracle_refused(self, tmp_path):
        rc = main(["equilibria", "--system", "two-tanks", "--oracle", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("system,value", [
        ("sym-hysteresis", "abc"),
        ("sym-hysteresis", "nan"),
        ("sym-hysteresis", "inf"),
        ("sym-hysteresis", "0.1,0.2"),
        ("toggle-switch", "5,5,2"),
        ("toggle-switch", "5,5,-inf,2"),
    ])
    def test_bad_control_is_refused(self, tmp_path, capsys, system, value):
        rc = main(["equilibria", "--system", system, "--oracle", "--control", value,
                   "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "--control" in capsys.readouterr().err
        assert not (tmp_path / f"{system}-equilibria.json").exists()

    def test_toggle_reports_failed_starts(self, tmp_path, capsys):
        rc = main(["equilibria", "--system", "toggle-switch", "--oracle",
                   "--control", "5,5,2,2", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "toggle-switch-equilibria.json").read_text())
        assert len(doc["equilibria"]) == 3
        assert doc["failed_starts"] == 0
        assert "0 Newton starts failed" in capsys.readouterr().out


class TestBifurcate:
    def test_budworm_oracle_tipping(self, tmp_path, capsys):
        rc = main(["bifurcate", "--system", "budworm", "--oracle", "--out", str(tmp_path),
                   "--points", "120"])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "budworm-tipping.json").read_text())
        tips = doc["tipping_points"]
        assert len(tips) == 2
        assert abs(tips[0] - 6.446) <= 0.05
        assert abs(tips[1] - 9.934) <= 0.05
        rows = (tmp_path / "budworm-bifurcation.csv").read_text().splitlines()
        assert rows[0] == "control_value,x_0,stability"

    def test_rejects_2d_system(self, tmp_path):
        rc = main(["bifurcate", "--system", "toggle-switch", "--oracle", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG


class TestSweepSize:
    @pytest.mark.parametrize("argv,flags", [
        (["bifurcate", "--system", SYM_HYSTERESIS, "--points", "1099511627776"],
         ["--points", "--scan"]),
        (["bifurcate", "--system", SYM_HYSTERESIS, "--scan", "1099511627776"],
         ["--points", "--scan"]),
        (["equilibria", "--system", SYM_HYSTERESIS, "--scan", "1099511627776"], ["--scan"]),
        (["equilibria", "--system", TOGGLE_SWITCH, "--scan-nd", "1048576"], ["--scan-nd"]),
    ], ids=["bifurcate-points", "bifurcate-scan", "equilibria-scan", "equilibria-scan-nd"])
    def test_too_large_is_refused(self, tmp_path, capsys, argv, flags):
        # each once ended in a traceback from an 8 TiB allocation (exit 1);
        # each is refused before any array is built
        rc = main(argv + ["--oracle", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags)
        assert list(tmp_path.iterdir()) == []

    def test_bounds_are_inclusive(self, tmp_path, monkeypatch):
        # 5 controls x (4 + 1) scan points, 24 + 1 scan points and 3^2 Newton
        # starts: at the bound each run goes ahead, one value below it is
        # refused
        bifurcate = ["bifurcate", "--system", "budworm", "--oracle", "--points", "5",
                     "--scan", "4", "--out", str(tmp_path)]
        scalar = ["equilibria", "--system", "budworm", "--oracle", "--scan", "24",
                  "--out", str(tmp_path)]
        toggle = ["equilibria", "--system", TOGGLE_SWITCH, "--oracle", "--control", "5,5,2,2",
                  "--scan-nd", "3", "--out", str(tmp_path)]
        monkeypatch.setattr(cli, "_MAX_STEP_VALUES", 25)
        monkeypatch.setattr(cli, "_MAX_SCAN_ROW", 25)
        monkeypatch.setattr(cli, "_MAX_NEWTON_STARTS", 9)
        assert main(bifurcate) == EXIT_OK
        assert main(scalar) == EXIT_OK
        assert main(toggle) == EXIT_OK
        monkeypatch.setattr(cli, "_MAX_STEP_VALUES", 24)
        monkeypatch.setattr(cli, "_MAX_SCAN_ROW", 24)
        monkeypatch.setattr(cli, "_MAX_NEWTON_STARTS", 8)
        assert main(bifurcate) == EXIT_CONFIG
        assert main(scalar) == EXIT_CONFIG
        assert main(toggle) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["bifurcate", "equilibria"])
    def test_scan_row_cap_is_inclusive(self, tmp_path, capsys, monkeypatch, command):
        # a scalar scan holds its whole row of --scan + 1 points: at a cap
        # of 25, 25 + 1 is refused before any array is built and 24 + 1 goes
        # ahead (2 controls x 26 points stay far inside the step-work bound)
        monkeypatch.setattr(cli, "_MAX_SCAN_ROW", 25)
        argv = [command, "--system", "budworm", "--oracle", "--out", str(tmp_path)]
        argv += ["--points", "2"] if command == "bifurcate" else []
        assert main(argv + ["--scan", "25"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--scan 25 takes 26 scan points" in err and "at most 25" in err
        assert list(tmp_path.iterdir()) == []
        assert main(argv + ["--scan", "24"]) == EXIT_OK


class TestControl:
    def test_threads_leave_outputs_unchanged(self, tmp_path):
        # --threads is accepted but selects no code path: all trials share
        # one batch either way
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            assert main(["control", "--system", "sym-hysteresis", "--field", str(CHECKPOINT),
                         "--out", str(out), "--trials", "3", "--targets", "2",
                         "--t-per-target", "2", "--threads", threads]) == EXIT_OK
            outputs.append([(out / f"sym-hysteresis-control-{name}").read_bytes()
                            for name in ("trials.csv", "summary.json")])
        assert outputs[0] == outputs[1]

    def test_summary_scores_each_trial_window_of_the_csv(self, tmp_path):
        # 3 trials x 3 targets of a scalar system, all on one batch axis: each
        # (trial, target) score is the nRMSE over the last fifth of that
        # trial's CSV rows for the target, in trial-major order
        assert main(["control", "--system", SYM_HYSTERESIS, "--field", str(CHECKPOINT),
                     "--out", str(tmp_path), "--trials", "3", "--targets", "3",
                     "--t-per-target", "2"]) == EXIT_OK
        summary = json.loads((tmp_path / f"{SYM_HYSTERESIS}-control-summary.json").read_text())
        rows = np.loadtxt(tmp_path / f"{SYM_HYSTERESIS}-control-trials.csv", delimiter=",",
                          skiprows=1)
        assert np.array_equal(rows[:, 1], rows[:, 5])  # phase is the target
        refs = benchmarks.sample_targets(SYM_HYSTERESIS, 3, [[0, 7, trial] for trial in range(3)])
        magnitude = benchmarks.system_magnitude(SYM_HYSTERESIS)
        want = []
        for trial in range(3):
            for target in range(3):
                x = rows[(rows[:, 0] == trial) & (rows[:, 1] == target)][:, [3]]
                window = x[min(int(np.ceil(0.8 * len(x))), len(x) - 1):]
                rmse = np.sqrt(np.mean((window - refs[trial, target]) ** 2, axis=0))
                want.append((rmse / magnitude).tolist())
        assert summary["per_target"] == want

    def test_budworm_oracle_trial(self, tmp_path, capsys):
        rc = main(["control", "--system", "budworm", "--oracle", "--out", str(tmp_path),
                   "--trials", "1", "--targets", "2", "--t-per-target", "5.0",
                   "--sigma", "0.0"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "within 5%" in out
        summary = json.loads((tmp_path / "budworm-control-summary.json").read_text())
        assert len(summary["per_target"]) == 2
        lines = (tmp_path / "budworm-control-trials.csv").read_text().splitlines()
        assert lines[0] == "trial_id,target_id,t,x_0,u_0,phase"

    def test_undefined_oracle_split_is_config_error(self, tmp_path, capsys):
        # trials start at x = 0, where the hysteresis split is undefined
        rc = main(["control", "--system", "sym-hysteresis", "--oracle", "--out", str(tmp_path),
                   "--trials", "1", "--targets", "1"])
        assert rc == EXIT_CONFIG
        assert "use a trained --field" in capsys.readouterr().err

    @pytest.mark.parametrize("targets,t_per_target", [("1", "1e10"), ("10", "1e307")],
                             ids=["2e12-steps", "steps-overflow"])
    def test_too_many_steps_is_refused(self, tmp_path, capsys, targets, t_per_target):
        # 2e12 Euler steps once ended in a MemoryError traceback from the
        # recording check (exit 1), and 10 x 1e307 overflowed to an infinite
        # step count (exit 1); both are refused before any array is built
        rc = main(["control", "--system", "sym-hysteresis", "--field", str(CHECKPOINT),
                   "--out", str(tmp_path), "--targets", targets, "--trials", "1",
                   "--t-per-target", t_per_target])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(flag in err for flag in ("--t-per-target", "--targets", "--trials"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("system,model,k", [
        (SYM_HYSTERESIS, ["--field", str(CHECKPOINT)], "100000000"),
        (BUDWORM, ["--oracle"], "1000000000"),
    ], ids=["field", "oracle"])
    def test_too_deep_k_is_refused(self, tmp_path, capsys, monkeypatch, system, model, k):
        # every Euler step keeps one target cache per level: --k 10^8 on the
        # checkpoint once headed for memory exhaustion inside the first step;
        # the analytic split counts one state value per level
        def never(*args, **kwargs):
            raise AssertionError("the trials must not start")

        monkeypatch.setattr(control, "feedback_simulate", never)
        rc = main(["control", "--system", system, *model, "--out", str(tmp_path),
                   "--targets", "1", "--trials", "1", "--t-per-target", "0.05",
                   "--k", k])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--k" in err and "--trials" in err
        assert list(tmp_path.iterdir()) == []

    def test_unscorable_targets_are_refused_from_the_step_count(self, tmp_path, capsys,
                                                                monkeypatch):
        # 4 x 10^6 targets in one Euler step: one recorded node cannot score
        # them. The schedule and the per-target id set were once built first
        # (596 MB peak RSS), and stderr listed about 4 million ids
        def never(*args, **kwargs):
            raise AssertionError("no per-target schedule may be built")

        monkeypatch.setattr(control, "control_schedule", never)
        rc = main(["control", "--system", SYM_HYSTERESIS, "--field", str(CHECKPOINT),
                   "--out", str(tmp_path), "--trials", "1", "--t-per-target", "1e-9",
                   "--targets", "4000000"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err) < 1024
        assert "4000000 targets" in err and "1 recorded nodes" in err
        assert "--record-every" in err and "--t-per-target" in err
        assert list(tmp_path.iterdir()) == []

    def test_unscored_targets_name_at_most_ten_ids(self, tmp_path, capsys, monkeypatch):
        # 30 targets over 6000 steps get 301 recorded nodes, enough by count;
        # a recording that gives every node to target 0 leaves 29 unscored,
        # and stderr names the first ten and the total
        def first_target_only(starts, grid, record_every):
            times = grid.times()[::record_every]
            return times, np.zeros(len(times), dtype=int)

        monkeypatch.setattr(cli.control, "recorded_nodes", first_target_only)
        rc = main(["control", "--system", SYM_HYSTERESIS, "--field", str(CHECKPOINT),
                   "--out", str(tmp_path), "--trials", "1", "--t-per-target", "1",
                   "--targets", "30"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "29 targets would get no recorded node" in err
        assert f"(first: {list(range(1, 11))})" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("system,model,t_per_target", [
        (benchmarks.TWO_TANKS, "field", "0.25"),
        (TOGGLE_SWITCH, "oracle", "0.01"),
    ], ids=["tanks", "toggle-oracle"])
    def test_too_many_target_settles_are_refused(self, tmp_path, capsys, monkeypatch, system,
                                                 model, t_per_target):
        # 60 trials x 10^6 targets, each settled on 4000 (tanks) or 400
        # (toggle) RK4 steps: every other bound passes, and the settles once
        # started
        def never(*args, **kwargs):
            raise AssertionError("no target may be drawn")

        monkeypatch.setattr(benchmarks, "sample_targets", never)
        model = (["--field", str(_checkpoint(tmp_path, system))] if model == "field"
                 else ["--oracle"])
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["control", "--system", system, *model, "--out", str(out),
                   "--t-per-target", t_per_target, "--targets", "1000000", "--trials", "60",
                   "--record-every", "1"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "settle on" in err and "--targets" in err and "--trials" in err
        assert list(out.iterdir()) == []

    def test_settle_bound_is_inclusive(self, tmp_path, capsys, monkeypatch):
        # 1 trial x 2 targets x 2 dims x (4000 + 1) tanks settle values: at
        # the bound the run goes ahead, one value below it is refused
        argv = ["control", "--system", benchmarks.TWO_TANKS, "--field",
                str(_checkpoint(tmp_path, benchmarks.TWO_TANKS)), "--out", str(tmp_path),
                "--targets", "2", "--trials", "1", "--t-per-target", "0.5",
                "--record-every", "1"]
        monkeypatch.setattr(cli, "_MAX_STEP_VALUES", 2 * 2 * 4001)
        assert main(argv) == EXIT_OK
        monkeypatch.setattr(cli, "_MAX_STEP_VALUES", 2 * 2 * 4001 - 1)
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        assert "settle on 4000 RK4 steps" in capsys.readouterr().err

    def test_k_bound_counts_every_level_and_trial(self, tmp_path, monkeypatch):
        # 2 trials x k = 2 levels of the checkpoint's target cache: at the
        # bound the run goes ahead, one value below it is refused
        spec = field.read_checkpoint(CHECKPOINT)[0].target_spec
        argv = ["control", "--system", SYM_HYSTERESIS, "--field", str(CHECKPOINT),
                "--out", str(tmp_path), "--targets", "1", "--trials", "2",
                "--t-per-target", "0.05", "--k", "2"]
        monkeypatch.setattr(cli, "_MAX_STEP_VALUES", 2 * 2 * nnet.cache_values(spec))
        assert main(argv) == EXIT_OK
        monkeypatch.setattr(cli, "_MAX_STEP_VALUES", 2 * 2 * nnet.cache_values(spec) - 1)
        assert main(argv) == EXIT_CONFIG

    def test_reproducible_with_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        for out in (a, b):
            assert main(["control", "--system", "budworm", "--oracle", "--out", str(out),
                         "--trials", "1", "--targets", "2", "--t-per-target", "2.0",
                         "--seed", "9"]) == EXIT_OK
        assert (a / "budworm-control-trials.csv").read_bytes() == \
            (b / "budworm-control-trials.csv").read_bytes()


OUT_OF_RANGE = [
    ("train", "epochs", 0),
    ("train", "batch-size", 0),
    ("train", "lr", -1),
    ("train", "restarts", 0),
    ("cv", "folds", 1),
    ("gen-data", "samples", 1),
    ("gen-data", "seed", -1),
    ("simulate", "horizon", -1),
    ("control", "record-every", 0),
    ("control", "targets", 0),
    ("control", "k", 0),
    ("control", "sigma", -0.5),
    ("bifurcate", "points", 0),
    ("bifurcate", "scan", 0),
]


class TestNumericRanges:
    @pytest.mark.parametrize("source", ["argv", "config"])
    @pytest.mark.parametrize("command,flag,value", OUT_OF_RANGE)
    def test_config_error(self, tmp_path, capsys, source, command, flag, value):
        argv = [command, "--system", "budworm", "--oracle", "--out", str(tmp_path)]
        if command in ("train", "cv", "gen-data"):
            argv.remove("--oracle")
        if source == "argv":
            argv += [f"--{flag}", str(value)]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({flag: value}))
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_CONFIG
        assert f"{flag} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["3", 2.0, True, None])
    def test_mistyped_config_value(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"points": value}))
        rc = main(["bifurcate", "--system", "budworm", "--oracle", "--out", str(tmp_path),
                   "--config", str(cfg)])
        assert rc == EXIT_CONFIG
        assert "points must be" in capsys.readouterr().err


MISTYPED = [
    ("simulate", "out", 5),
    ("train", "data", 5),
    ("gen-data", "system", 3),
    ("simulate", "field", ["a.json"]),
    ("equilibria", "control", 0.5),
    ("equilibria", "oracle", "false"),
    ("equilibria", "oracle", 0),
    ("gen-data", "paper-scale", "true"),
]


class TestOptionTypes:
    @pytest.mark.parametrize("command,key,value", MISTYPED)
    def test_config_error(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        argv = [command, "--config", str(cfg)]
        if key != "system":
            argv += ["--system", "budworm"]
        if key != "out":
            argv += ["--out", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        assert f"{key} must be" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


class TestConfigFile:
    def test_config_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": "budworm", "samples": 4}))
        rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        manifest = json.loads((tmp_path / "budworm-data.json").read_text())
        assert manifest["protocol"]["samples_per_traj"] == 4

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": "budworm", "samples": 4}))
        rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path),
                   "--samples", "6"])
        assert rc == EXIT_OK
        manifest = json.loads((tmp_path / "budworm-data.json").read_text())
        assert manifest["protocol"]["samples_per_traj"] == 6

    def test_int_flag_typed_at_its_default_beats_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": "budworm", "samples": 4, "seed": 3}))
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path),
                     "--samples", "51", "--seed", "0"]) == EXIT_OK
        manifest = json.loads((tmp_path / "budworm-data.json").read_text())
        assert manifest["protocol"]["samples_per_traj"] == 51
        assert manifest["seed"] == 0

    @pytest.mark.parametrize("typed,key,file_value", [
        (["--horizon", "0.5"], "horizon", 2.0),
        (["--oracle"], "oracle", False),
    ], ids=["float", "switch"])
    def test_typed_flag_beats_config(self, tmp_path, typed, key, file_value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": "budworm", "horizon": 0.5, "oracle": True,
                                   key: file_value}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                     "--samples", "3", "--limit", "1", *typed]) == EXIT_OK
        rows = (tmp_path / "budworm-simulate-oracle.csv").read_text().splitlines()
        assert float(rows[-1].split(",")[1]) == 0.5

    @pytest.mark.parametrize("command", ["train", "cv", "equilibria", "bifurcate", "control"])
    @pytest.mark.parametrize("key,value", [("samples", 3), ("paper-scale", True)])
    def test_protocol_options_only_on_data_commands(self, tmp_path, capsys, command, key,
                                                    value):
        flag = [f"--{key}"] + ([] if value is True else [str(value)])
        with pytest.raises(SystemExit) as exc:
            main([command, "--system", "budworm", "--out", str(tmp_path), *flag])
        assert exc.value.code == EXIT_CONFIG
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        assert main([command, "--system", "budworm", "--out", str(tmp_path),
                     "--config", str(cfg)]) == EXIT_CONFIG
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": "budworm", "bogus": 1}))
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("key", ["fn", "command", "help"])
    def test_parser_internals_are_not_config_keys(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": "budworm", key: 1}))
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"unknown config key {key!r}" in capsys.readouterr().err
