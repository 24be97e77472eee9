"""The grid scripts build their cells and figures from the package's public
functions; a renamed function or a changed record must fail here rather than
in a multi-minute grid run."""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from oat.dataio import SyntheticSpec, gen_synthetic

GRID = Path(__file__).resolve().parent.parent / "grid"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"grid_{name}", GRID / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def grid():
    return _load("run")


def test_cells_hold_the_acceptance_imbalance_first_and_spread_data(grid):
    cells = grid.cells()
    assert list(cells) == ["acceptance", "imbalance_first", "spread_0.25"]
    for ds, test in cells.values():
        assert ds.gt_labels is not None and len(test) == 400
    assert len(cells["acceptance"][0]) == len(cells["spread_0.25"][0]) == 898


@pytest.mark.parametrize("name", ["oat", "oat_no_adjust", "pgd_at", "ceiling", "erm"])
def test_every_run_yields_every_figure(grid, tmp_path, name):
    ds = gen_synthetic(SyntheticSpec(3, 16, 12, 0.1, seed=1))
    test = gen_synthetic(SyntheticSpec(3, 16, 4, 0.1, seed=2))
    config, train_ds = grid.run_inputs(name, ds, 1)
    config = dataclasses.replace(config, epochs=2, lr_decay_epochs=(), k=5)
    figures = grid.run_figures(name, config, train_ds, test, tmp_path / "run")
    assert list(figures) == list(grid.FIGURES)
    assert 0.0 <= figures["best_robust"] <= figures["best_clean"] <= 1.0


def test_compare_flags_a_median_outside_the_seed_spread(tmp_path, capsys):
    compare = _load("compare")

    def table(tag, robust):
        seeds = {str(s): {"best_robust": r, "wall_s": 1.0} for s, r in enumerate(robust, 1)}
        median = {"best_robust": sorted(robust)[1], "wall_s": 1.0}
        return {"tag": tag, "figures": ["best_robust", "wall_s"],
                "cells": {"c": {"r": {"seeds": seeds, "median": median}}}}

    files = {}
    # the base's seeds spread 0.01 about its median 0.6
    for tag, robust in (("base", [0.6, 0.6, 0.61]), ("near", [0.61, 0.61, 0.61]),
                        ("far", [0.62, 0.62, 0.62])):
        files[tag] = tmp_path / f"{tag}.json"
        files[tag].write_text(json.dumps(table(tag, robust)))
    assert compare.main(files["base"], files["near"]) == 0
    assert compare.main(files["base"], files["far"]) == 1
    assert "| c | r | best_robust | 0.6 | 0.01 | 0.62 | +0.02 | **no** |" in capsys.readouterr().out
