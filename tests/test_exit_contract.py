"""The exit-code contract on mutated artifacts, generated.

Every node below the root of the checked-in checkpoint and of a tiny
dataset's manifest is mutated in turn (for a list, its first and last item
stand in for all of it), and a few cells of the dataset's CSV are edited
with its content hash recomputed. Every variant must either load or be
refused with an error that the CLI maps to exit 2; a fixed sample of them
runs through `main`, which must return 0, 2 or 3 with no exception
escaping it, and write nothing when it returns 2.
"""

import copy
import hashlib
import json
from argparse import Namespace

import pytest

from stabledyn import benchmarks, cli, field, training
from stabledyn.benchmarks import SYM_HYSTERESIS, TWO_TANKS, DataProtocol
from stabledyn.cli import EXIT_CONFIG, main
from stabledyn.integrate import DatasetError
from util import CHECKPOINT

DELETE = object()
MUTATIONS = [None, True, "s", -1, 0, 10**400, 1e308, [], {}, [1.0], DELETE]
# what `cli._load_field_arg` turns into a config error (exit 2)
CHECKPOINT_ERRORS = (OSError, KeyError, ValueError, TypeError, OverflowError)


def _nodes(doc, path=()):
    """Key paths of every node below ``doc``, depth first; a list's first
    and last items stand in for all of its items."""
    if isinstance(doc, dict):
        keys = list(doc)
    elif isinstance(doc, list):
        keys = sorted({0, len(doc) - 1}) if doc else []
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from _nodes(doc[key], path + (key,))


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = copy.deepcopy(value)
    return doc


def _variants(doc):
    """(id, mutated document) for every node and mutation, node by node."""
    return [(f"{'/'.join(map(str, path))}={'delete' if value is DELETE else repr(value)[:8]}",
             _mutated(doc, path, value))
            for path in _nodes(doc) for value in MUTATIONS]


def _sample(variants):
    """One variant per node, the mutations taken in turn: the sample that
    runs through `main`."""
    n = len(MUTATIONS)
    return [variants[node * n + node % n] for node in range(len(variants) // n)]


def _check(load, name):
    """``load()``, with the variant named if it raises what it may not."""
    try:
        return load()
    except Exception as err:
        raise AssertionError(f"variant {name}: {type(err).__name__}: {err}") from err


def _run(argv, out):
    """`main`'s exit code for argv; on exit 2, nothing may be written."""
    out.mkdir()
    rc = main([*argv, "--out", str(out)])
    assert rc in (0, 2, 3), (argv, rc)
    if rc == EXIT_CONFIG:
        assert list(out.iterdir()) == [], argv
    return rc


CHECKPOINT_VARIANTS = _variants(json.loads(CHECKPOINT.read_text()))
COMMANDS = {
    "bifurcate": ["--points", "5", "--scan", "20"],
    "control": ["--targets", "1", "--trials", "1", "--t-per-target", "0.05"],
}


def _field_loads(doc):
    """Whether the checkpoint document loads; False if it is refused with
    an error `main` maps to exit 2."""
    try:
        field.field_from_dict(doc)
    except CHECKPOINT_ERRORS:
        return False
    return True


class TestCheckpointVariants:
    def test_every_variant_loads_or_is_a_config_error(self):
        # 35 nodes of the checked-in checkpoint, 11 mutations each
        assert len(CHECKPOINT_VARIANTS) == 385
        loaded = [_check(lambda: _field_loads(doc), name) for name, doc in CHECKPOINT_VARIANTS]
        assert any(loaded) and not all(loaded)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_sampled_variants_exit_0_2_or_3(self, tmp_path, capsys, command):
        codes = []
        for i, (name, doc) in enumerate(_sample(CHECKPOINT_VARIANTS)):
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps(doc))
            codes.append(_run([command, "--system", SYM_HYSTERESIS, "--field", str(path),
                               *COMMANDS[command]], tmp_path / str(i)))
        capsys.readouterr()
        assert len(codes) == 35 and {0, 2} <= set(codes)


def _content_hash(data: bytes) -> str:
    """`git hash-object` of a file holding ``data``."""
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def _csv_edits(text):
    """(id, edited CSV text) for each cell of the first and last data rows
    set to each of a few bad values, and a few whole-file edits."""
    lines = text.splitlines(keepends=True)
    edits = []
    for row in (1, len(lines) - 1):
        cells = lines[row].rstrip("\n").split(",")
        for col in range(len(cells)):
            for value in ("nan", "inf", "x", "", "1e400", "-1", "2.5"):
                edited = list(lines)
                edited[row] = ",".join(cells[:col] + [value] + cells[col + 1:]) + "\n"
                edits.append((f"row{row}-col{col}={value}", "".join(edited)))
    edits += [
        ("no-header", "".join(lines[1:])),
        ("header-only", lines[0]),
        ("empty", ""),
        ("blank-line", "".join(lines[:2] + ["\n"] + lines[2:])),
        ("duplicate-row", "".join(lines[:2] + lines[1:])),
        ("short-row", "".join(lines[:-1] + [lines[-1].rsplit(",", 1)[0] + "\n"])),
        ("no-final-newline", text.rstrip("\n")),
    ]
    return edits


def _tiny_dataset(tmp_path, system):
    """A generated dataset of 4 trajectories of 4 samples, two initial
    states by two controls of the system's grid: (prefix, manifest, CSV
    text)."""
    grid = benchmarks.default_protocol(system, samples_per_traj=4)
    proto = DataProtocol(grid.ic_grid[[1, -2]], grid.control_grid[[0, -1]], grid.horizon,
                         grid.samples_per_traj, grid.rk4_steps)
    prefix = tmp_path / "data"
    manifest = benchmarks.save_dataset(prefix, benchmarks.gen_dataset(system, proto), proto, 0)
    return prefix, manifest, prefix.with_suffix(".csv").read_text()


def _write(prefix, manifest, text):
    prefix.with_suffix(".csv").write_text(text)
    prefix.with_suffix(".json").write_text(json.dumps(manifest))


def _loads_or_config_error(prefix):
    """Whether the dataset loads as `train` loads it and builds its
    objective; False if that is refused with an error `main` maps to exit
    2."""
    try:
        system, dataset = cli._load_dataset_arg(Namespace(data=str(prefix), system=None))
        training.make_objective(benchmarks.default_train_recipe(system)[0],
                                dataset.trajectories)
    except (cli.ConfigError, DatasetError):
        return False
    return True


@pytest.mark.parametrize("system", [SYM_HYSTERESIS, TWO_TANKS])  # traj and grad matching
class TestDatasetVariants:
    def test_every_variant_loads_or_is_a_config_error(self, tmp_path, system):
        prefix, manifest, text = _tiny_dataset(tmp_path, system)
        loaded = []
        for name, doc in _variants(manifest):
            _write(prefix, doc, text)
            loaded.append(_check(lambda: _loads_or_config_error(prefix), name))
        for name, edited in _csv_edits(text):
            _write(prefix, {**manifest, "content_hash": _content_hash(edited.encode())}, edited)
            loaded.append(_check(lambda: _loads_or_config_error(prefix), name))
        assert any(loaded) and not all(loaded)

    def test_sampled_variants_train_with_exit_0_2_or_3(self, tmp_path, capsys, system):
        prefix, manifest, text = _tiny_dataset(tmp_path, system)
        variants = [(doc, text) for _, doc in _sample(_variants(manifest))]
        # every eighth CSV edit: the 7 bad values of a cell come in turn
        variants += [({**manifest, "content_hash": _content_hash(edited.encode())}, edited)
                     for _, edited in _csv_edits(text)[::8]]
        codes = []
        for i, (doc, csv_text) in enumerate(variants):
            _write(prefix, doc, csv_text)
            codes.append(_run(["train", "--data", str(prefix), "--epochs", "1"],
                              tmp_path / str(i)))
        capsys.readouterr()
        assert {0, 2} <= set(codes)
