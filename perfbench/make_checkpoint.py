"""Regenerate the fixed learned checkpoint that the `analyze` workload uses.

    python3 perfbench/make_checkpoint.py

Runs, through the CLI and with `--threads 1`:

    stabledyn gen-data --system sym-hysteresis --seed 0
    stabledyn train --system sym-hysteresis --epochs 20 --seed 0

and copies the trained field to perfbench/data/sym-hysteresis-field.json,
then prints the learned tipping points (the checkpoint must be bistable
around u = 0). The checkpoint is checked in so that changes to training
cannot move the `analyze` numbers; regenerate it only on purpose, and say
so, because a new checkpoint changes that workload's baseline.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

from rep import ROOT, import_program
from workloads import CHECKPOINT, HYSTERESIS

EPOCHS = 20
SEED = 0


def main() -> int:
    cli = import_program(ROOT)
    work = ROOT / "perfbench" / "out" / "checkpoint"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--system", HYSTERESIS, "--out", str(work), "--seed", str(SEED), "--threads", "1"]
    for argv in (["gen-data", *common],
                 ["train", *common, "--data", str(work / f"{HYSTERESIS}-data"),
                  "--epochs", str(EPOCHS)]):
        rc = cli.main(argv)
        if rc != 0:
            return rc
    target = ROOT / CHECKPOINT
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(work / f"{HYSTERESIS}-field.json", target)
    return cli.main(["bifurcate", "--field", str(target), *common])


if __name__ == "__main__":
    sys.exit(main())
