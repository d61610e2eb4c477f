"""Every benchmark check passes on a real round's outputs and fails on a
deliberately corrupted copy of them.

    python3 -m pytest -q bench/tests

One round of each workload runs once per test run (about 20 s together).
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from cnvlink.matrixio import load_checkpoint, save_checkpoint  # noqa: E402


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """One clean round of every workload, all checks passed."""
    out = {}
    for name, w in WORKLOADS.items():
        root = tmp_path_factory.mktemp(name)
        dirs = harness.RoundDirs(w, str(root / "data"), str(root / "fit"), str(root / "post"))
        w.make_dataset(dirs.data_dir)
        with open(root / "cli.log", "w", encoding="utf-8") as log:
            result = harness.run_round(dirs, 0, None, None, log)
        assert [msg for _, msg in result["ops"] if msg] == []
        out[name] = (dirs, result["digests"])
    return out


def _copy(rounds, name, tmp_path):
    """A private copy of one workload's round that a test may corrupt."""
    dirs, digests = rounds[name]
    fit = str(tmp_path / "fit")
    post = str(tmp_path / "post")
    shutil.copytree(dirs.fit_dir, fit)
    shutil.copytree(dirs.post_dir, post)
    return dataclasses.replace(dirs, fit_dir=fit, post_dir=post), digests


def _edit_cells(path: str, rows, col: int, change) -> None:
    """Replace data cells (0-based, labels excluded) of one column of a
    labeled TSV."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split("\t") for line in fh]
    for row in rows:
        lines[row + 1][col + 1] = change(lines[row + 1][col + 1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join("\t".join(line) for line in lines) + "\n")


def _edit_cell(path: str, row: int, col: int, change) -> None:
    _edit_cells(path, [row], col, change)


def _flip_state(value: str) -> str:
    return "4" if value != "4" else "1"


def _fails(check, dirs, match: str) -> None:
    with pytest.raises(checks.CheckFailed, match=match):
        check(dirs)


# ---------------- toy ----------------


def test_toy_ppi_moved(rounds, tmp_path):
    dirs, _ = _copy(rounds, "toy", tmp_path)
    checks.check_toy_enumeration(dirs)
    _edit_cell(os.path.join(dirs.fit_dir, "ppi.tsv"), 0, 0, lambda v: repr(float(v) + 0.05))
    _fails(checks.check_toy_enumeration, dirs, "PPI off the exact posterior")


def test_toy_state_marginal_moved(rounds, tmp_path):
    dirs, _ = _copy(rounds, "toy", tmp_path)
    path = os.path.join(dirs.fit_dir, "checkpoint.bin")
    cp = load_checkpoint(path)
    counts = cp.state_counts.reshape(4, 2, 4)
    source = int(np.argmax(counts[0, 0]))
    moved = cp.kept // 10
    counts[0, 0, source] -= moved
    counts[0, 0, (source + 1) % 4] += moved
    save_checkpoint(path, cp)
    _fails(checks.check_toy_enumeration, dirs, "state marginal off the exact posterior")


def test_toy_pinned_parameter_moved(rounds, tmp_path):
    dirs, _ = _copy(rounds, "toy", tmp_path)
    # the enumeration reads the parameters back, so a wrong neutral mean
    # changes the reference the chain's output is held to
    _edit_cell(os.path.join(dirs.fit_dir, "hmm_estimates.tsv"), 1, 0, lambda v: repr(float(v) + 1.0))
    _fails(checks.check_toy_enumeration, dirs, "off the exact posterior")


# ---------------- acceptance ----------------


def test_acceptance_emission_outside_bound(rounds, tmp_path):
    dirs, _ = _copy(rounds, "acceptance", tmp_path)
    checks.check_recovery(dirs)
    _edit_cell(os.path.join(dirs.fit_dir, "hmm_estimates.tsv"), 3, 0, lambda v: repr(float(v) + 0.11))
    _fails(checks.check_recovery, dirs, "emission means")


def test_acceptance_sd_outside_bound(rounds, tmp_path):
    dirs, _ = _copy(rounds, "acceptance", tmp_path)
    _edit_cell(os.path.join(dirs.fit_dir, "hmm_estimates.tsv"), 3, 1, lambda v: repr(float(v) - 0.06))
    _fails(checks.check_recovery, dirs, "emission sds")


def test_acceptance_missed_association(rounds, tmp_path):
    dirs, _ = _copy(rounds, "acceptance", tmp_path)
    path = os.path.join(dirs.post_dir, "selected.tsv")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:1] + lines[2:])
    # 7 of 8 still clears the sensitivity bound; summarize's metrics.tsv
    # no longer matches the selection it describes
    _fails(checks.check_recovery, dirs, "metrics.tsv reports")


def test_acceptance_state_errors(rounds, tmp_path):
    dirs, _ = _copy(rounds, "acceptance", tmp_path)
    path = os.path.join(dirs.fit_dir, "xi_modal.tsv")
    for col in (0, 1):
        _edit_cells(path, range(50), col, _flip_state)
    _fails(checks.check_recovery, dirs, "state error")


# ---------------- paper ----------------


def test_paper_state_column_changed(rounds, tmp_path):
    dirs, _ = _copy(rounds, "paper", tmp_path)
    checks.check_states(dirs)
    checks.check_checkpoint(dirs)
    path = os.path.join(dirs.fit_dir, "xi_modal.tsv")
    _edit_cells(path, range(100), 500, _flip_state)
    # 100 of 100k cells stay under the 1% state-error bound; the reload
    # of the checkpoint's state counts catches the column
    checks.check_states(dirs)
    _fails(checks.check_checkpoint, dirs, "xi_modal.tsv disagrees")


def test_paper_emission_outside_bound(rounds, tmp_path):
    dirs, _ = _copy(rounds, "paper", tmp_path)
    _edit_cell(os.path.join(dirs.fit_dir, "hmm_estimates.tsv"), 0, 0, lambda v: repr(float(v) - 0.11))
    _fails(checks.check_states, dirs, "emission means")


def test_paper_ppi_moved(rounds, tmp_path):
    dirs, _ = _copy(rounds, "paper", tmp_path)
    checks.check_selection(dirs)
    _edit_cell(os.path.join(dirs.fit_dir, "ppi.tsv"), 0, 0, lambda v: repr(float(v) + 0.05))
    _fails(checks.check_selection, dirs, "multiple of|recomputed")


def test_paper_ppi_moved_on_the_grid(rounds, tmp_path):
    dirs, _ = _copy(rounds, "paper", tmp_path)
    kept = dirs.workload.n_retained
    step = round(0.05 * kept) / kept
    # still a count over the retained samples, but the recorded selection
    # and q-values no longer follow from the PPIs
    _edit_cell(os.path.join(dirs.fit_dir, "ppi.tsv"), 0, 0, lambda v: repr(float(v) + step))
    _fails(checks.check_selection, dirs, "recomputed")


def test_paper_ppi_off_the_grid(rounds, tmp_path):
    dirs, _ = _copy(rounds, "paper", tmp_path)
    _edit_cell(os.path.join(dirs.fit_dir, "ppi.tsv"), 0, 0, lambda v: repr(float(v) + 0.1 / dirs.workload.n_retained))
    _fails(checks.check_selection, dirs, "multiple of")


def test_paper_qvalue_moved(rounds, tmp_path):
    dirs, _ = _copy(rounds, "paper", tmp_path)
    _edit_cell(os.path.join(dirs.post_dir, "qvalues.tsv"), 3, 7, lambda v: repr(float(v) * 0.5))
    _fails(checks.check_selection, dirs, "qvalues.tsv")


def test_paper_checkpoint_short(rounds, tmp_path):
    dirs, _ = _copy(rounds, "paper", tmp_path)
    path = os.path.join(dirs.fit_dir, "checkpoint.bin")
    cp = load_checkpoint(path)
    cp.iteration -= 1
    save_checkpoint(path, cp)
    _fails(checks.check_checkpoint, dirs, "checkpoint at iteration")


# ---------------- all: byte-identical reruns ----------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_differing_byte(rounds, tmp_path, name):
    dirs, reference = _copy(rounds, name, tmp_path)
    checks.check_identical(checks.output_digests(dirs.fit_dir, dirs.post_dir), reference)
    path = os.path.join(dirs.fit_dir, "xi_modal.tsv")
    with open(path, "rb") as fh:
        payload = bytearray(fh.read())
    payload[-2] ^= 1
    with open(path, "wb") as fh:
        fh.write(payload)
    with pytest.raises(checks.CheckFailed, match="fit/xi_modal.tsv"):
        checks.check_identical(checks.output_digests(dirs.fit_dir, dirs.post_dir), reference)
