"""Command-line workflows: simulate -> fit -> summarize -> diagnose, plus
exit codes, config precedence, checkpoint resume, and output formats."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

import cnvlink.cli as cli_module
from cnvlink import __version__
from cnvlink.cli import main
from cnvlink.matrixio import load_checkpoint, read_json, read_matrix_tsv
from cnvlink.matrixio import save_checkpoint as real_save_checkpoint
from helpers import MALFORMED_CHECKPOINTS

SIM_ARGS = [
    "simulate",
    "--set", "scenario.n_samples=12",
    "--set", "scenario.n_genes=3",
    "--scenario.n_probes", "12",
    "--set", "scenario.n_varied=4",
    "--set", "scenario.n_assoc=2",
    "--set", "scenario.weak_effect_count=0",
    "--seed", "1",
]

FIT_ARGS = [
    "fit",
    "--iterations", "240",
    "--burn-in", "40",
    "--set", "sampler.thin=2",
    "--seed", "2",
    "--fdr", "0.2",
]

FIT_OUTPUT_FILES = (
    "ppi.tsv", "qvalues.tsv", "selected.tsv", "xi_modal.tsv",
    "hmm_estimates.tsv", "traces.tsv", "acceptance.tsv", "manifest.json",
    "checkpoint.bin",
)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data") / "sim")
    assert main([*SIM_ARGS, "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run") / "fit")
    assert main([*FIT_ARGS, "--data.dir", sim_dir, "--out", out]) == 0
    return out


# ---------------- top-level behavior ----------------


class TestEntryPoint:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert f"cnvlink {__version__}" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "simulate" in capsys.readouterr().out

    def test_unknown_option_is_a_usage_error(self):
        assert main(["fit", "--warp-factor", "9"]) == 1

    def test_set_requires_key_equals_value(self, sim_dir, capsys):
        rc = main(["simulate", "--set", "noequals", "--out", sim_dir])
        assert rc == 1
        assert "--set expects KEY=VALUE" in capsys.readouterr().err

    def test_typed_flag_errors_exit_1(self, capsys):
        rc = main(["simulate", "--set", "scenario.n_samples=abc"])
        assert rc == 1
        assert "expected an integer" in capsys.readouterr().err


# ---------------- simulate ----------------


class TestSimulateCommand:
    def test_writes_dataset_files(self, sim_dir):
        for name in ("Y.tsv", "X.tsv", "pos.tsv", "xi_true.tsv", "R_true.tsv",
                     "beta_true.tsv", "manifest.json"):
            assert os.path.exists(os.path.join(sim_dir, name)), name

    def test_dataset_shapes_and_labels(self, sim_dir):
        y, samples, genes = read_matrix_tsv(os.path.join(sim_dir, "Y.tsv"))
        x, samples_x, probes = read_matrix_tsv(os.path.join(sim_dir, "X.tsv"))
        assert y.shape == (12, 3)
        assert x.shape == (12, 12)
        assert samples == samples_x == [f"s{i:04d}" for i in range(1, 13)]
        assert genes == ["g0001", "g0002", "g0003"]
        assert probes == [f"p{i:04d}" for i in range(1, 13)]

    def test_manifest_records_the_run(self, sim_dir):
        manifest = read_json(os.path.join(sim_dir, "manifest.json"))
        assert manifest["kind"] == "cnvlink-dataset"
        assert manifest["version"] == __version__
        assert len(manifest["config_hash"]) == 64
        assert manifest["seed"] == 1
        assert len(manifest["varied_columns"]) == 4
        assert set(manifest["files"]) == {
            "Y.tsv", "X.tsv", "pos.tsv", "R_true.tsv", "xi_true.tsv", "beta_true.tsv",
        }

    def test_config_provenance_logged(self, tmp_path, capsys):
        out = str(tmp_path / "sim")
        assert main([*SIM_ARGS, "--out", out]) == 0
        err = capsys.readouterr().err
        assert "configuration (non-default keys):" in err
        assert "keys at documented defaults" in err
        assert f"simulate: wrote dataset to {out}" in err

    def test_config_file_loses_to_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "scenario.n_probes = 999\nscenario.n_samples = 12\n", encoding="utf-8"
        )
        out = str(tmp_path / "sim")
        rc = main([
            "simulate", "--config", str(cfg),
            "--scenario.n_probes", "12",
            "--set", "scenario.n_genes=2",
            "--set", "scenario.n_varied=4",
            "--set", "scenario.n_assoc=1",
            "--set", "scenario.weak_effect_count=0",
            "--out", out,
        ])
        assert rc == 0
        x, _, _ = read_matrix_tsv(os.path.join(out, "X.tsv"))
        assert x.shape == (12, 12)

    def test_output_root_environment_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CNVLINK_OUTPUT_ROOT", str(tmp_path))
        assert main(SIM_ARGS) == 0
        assert os.path.exists(os.path.join(tmp_path, "cnvlink-sim", "Y.tsv"))


# ---------------- fit ----------------


class TestFitCommand:
    def test_writes_all_outputs(self, fit_dir):
        for name in FIT_OUTPUT_FILES:
            assert os.path.exists(os.path.join(fit_dir, name)), name

    def test_manifest_contents(self, sim_dir, fit_dir):
        manifest = read_json(os.path.join(fit_dir, "manifest.json"))
        assert manifest["kind"] == "cnvlink-fit"
        assert manifest["version"] == __version__
        assert manifest["seed"] == 2
        assert manifest["n_kept"] == 100
        assert manifest["fdr_target"] == 0.2
        assert manifest["data_dir"] == sim_dir
        assert len(manifest["data_manifest_sha256"]) == 64
        assert len(manifest["config_hash"]) == 64
        assert manifest["config"]["sampler.iterations"] == 240
        assert manifest["provenance"]["sampler.iterations"] == "flag"
        assert manifest["provenance"]["sampler.update_assoc"] == "default"
        assert manifest["acceptance"]["state_proposed"] > 0
        assert isinstance(manifest["threshold"], float)

    def test_ppi_and_qvalues_are_probabilities(self, fit_dir):
        ppi, genes, probes = read_matrix_tsv(os.path.join(fit_dir, "ppi.tsv"))
        qvals, _, _ = read_matrix_tsv(os.path.join(fit_dir, "qvalues.tsv"))
        assert ppi.shape == qvals.shape == (3, 12)
        assert genes == ["g0001", "g0002", "g0003"]
        assert ((ppi >= 0) & (ppi <= 1)).all()
        assert ((qvals >= 0) & (qvals <= 1)).all()

    def test_modal_states_are_valid(self, fit_dir):
        modes, _, _ = read_matrix_tsv(os.path.join(fit_dir, "xi_modal.tsv"), dtype=np.int64)
        assert modes.shape == (12, 12)
        assert set(np.unique(modes)) <= {1, 2, 3, 4}

    def test_hmm_estimates_table(self, fit_dir):
        est, rows, cols = read_matrix_tsv(os.path.join(fit_dir, "hmm_estimates.tsv"))
        assert rows == ["loss", "neutral", "gain", "amp"]
        assert cols == ["mean", "sd", "to_loss", "to_neutral", "to_gain", "to_amp"]
        assert est.shape == (4, 6)
        assert np.allclose(est[:, 2:].sum(axis=1), 1.0)

    def test_traces_table(self, fit_dir):
        table, rows, names = read_matrix_tsv(os.path.join(fit_dir, "traces.tsv"))
        assert table.shape == (100, 14)
        assert rows[0] == "k0001" and rows[-1] == "k0100"
        assert names == [
            "assoc_size",
            "occupancy_loss", "occupancy_neutral", "occupancy_gain", "occupancy_amp",
            "mean_loss", "mean_neutral", "mean_gain", "mean_amp",
            "sd_loss", "sd_neutral", "sd_gain", "sd_amp",
            "log_posterior",
        ]

    def test_acceptance_table(self, fit_dir):
        lines = open(os.path.join(fit_dir, "acceptance.tsv"), encoding="utf-8").read().splitlines()
        assert lines[0] == "move\tproposed\taccepted\trate"
        moves = [line.split("\t")[0] for line in lines[1:]]
        assert moves == ["add", "delete", "swap", "state", "row", "trans",
                         "assoc_noop", "trans_degenerate"]
        for line in lines[1:]:
            cells = line.split("\t")
            assert len(cells) == 4
            int(cells[1]), int(cells[2]), float(cells[3])

    def test_selected_pairs_table(self, fit_dir):
        ppi, genes, probes = read_matrix_tsv(os.path.join(fit_dir, "ppi.tsv"))
        by_label = {
            (genes[g], probes[m]): ppi[g, m]
            for g in range(len(genes))
            for m in range(len(probes))
        }
        lines = open(os.path.join(fit_dir, "selected.tsv"), encoding="utf-8").read().splitlines()
        assert lines[0] == "pair\tgene\tprobe\tppi\tq_value"
        last_ppi = 2.0
        for rank, line in enumerate(lines[1:], start=1):
            pair, gene, probe, ppi_cell, q_cell = line.split("\t")
            assert pair == f"k{rank:04d}"
            value = float(ppi_cell)
            assert value == by_label[(gene, probe)]
            assert value <= last_ppi
            assert 0.0 <= float(q_cell) <= 1.0
            last_ppi = value

    def test_final_checkpoint_is_loadable(self, fit_dir):
        checkpoint = load_checkpoint(os.path.join(fit_dir, "checkpoint.bin"))
        assert checkpoint.iteration == 240
        assert checkpoint.kept == 100

    @pytest.mark.parametrize("fdr", ["0", "1.0", "1.5"])
    def test_fdr_outside_the_unit_interval_exits_1_before_sampling(
        self, sim_dir, tmp_path, capsys, fdr
    ):
        out = tmp_path / "out"
        rc = main([*FIT_ARGS, "--fdr", fdr, "--data.dir", sim_dir, "--out", str(out)])
        assert rc == 1
        assert f"fit.fdr must lie in (0, 1), got {float(fdr)}" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()

    def test_missing_data_dir_key(self, capsys):
        assert main(["fit"]) == 1
        assert "missing required configuration key: data.dir" in capsys.readouterr().err

    def test_nonexistent_data_dir(self, tmp_path, capsys):
        rc = main(["fit", "--data.dir", str(tmp_path / "nowhere")])
        assert rc == 1
        assert "is missing Y.tsv" in capsys.readouterr().err

    @pytest.mark.parametrize("name,line,row,col", [
        pytest.param("pos.tsv", 1, "p0001", "pos", id="pos"),
        pytest.param("Y.tsv", 2, "s0002", "g0001", id="Y"),
    ])
    def test_non_numeric_cell_exits_1(self, sim_dir, tmp_path, capsys, name, line, row, col):
        data = tmp_path / "corrupt"
        shutil.copytree(sim_dir, data)
        path = data / name
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[line].split("\t")
        cells[1] = "abc"
        lines[line] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["fit", "--data.dir", str(data), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{path}: row '{row}', column '{col}'" in err
        assert "is not a valid float64" in err

    def test_fragment_length_required_without_manifest(self, sim_dir, tmp_path, capsys):
        data = tmp_path / "bare"
        os.makedirs(data)
        for name in ("Y.tsv", "X.tsv", "pos.tsv"):
            shutil.copy(os.path.join(sim_dir, name), data / name)
        rc = main(["fit", "--data.dir", str(data), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "fragment length unknown" in capsys.readouterr().err

    def test_fragment_length_override_fills_the_gap(self, sim_dir, tmp_path):
        data = tmp_path / "bare"
        os.makedirs(data)
        for name in ("Y.tsv", "X.tsv", "pos.tsv"):
            shutil.copy(os.path.join(sim_dir, name), data / name)
        out = str(tmp_path / "out")
        rc = main([
            "fit", "--data.dir", str(data), "--data.fragment_length", "12",
            "--iterations", "40", "--burn-in", "10", "--seed", "3", "--out", out,
        ])
        assert rc == 0
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert manifest["data_manifest_sha256"] is None
        assert manifest["n_kept"] == 30


class TestFitResume:
    def test_checkpointed_and_resumed_runs_match_byte_for_byte(
        self, sim_dir, fit_dir, tmp_path, monkeypatch, capsys
    ):
        kept_copies = []

        def capturing_save(path, checkpoint):
            real_save_checkpoint(path, checkpoint)
            if checkpoint.iteration < checkpoint.iterations:
                copy = os.path.join(
                    os.path.dirname(path), f"mid{checkpoint.iteration}.bin"
                )
                shutil.copy(path, copy)
                kept_copies.append(copy)

        monkeypatch.setattr(cli_module, "save_checkpoint", capturing_save)
        mid_dir = str(tmp_path / "mid")
        rc = main([
            *FIT_ARGS, "--data.dir", sim_dir, "--out", mid_dir,
            "--set", "fit.checkpoint_every=100",
        ])
        assert rc == 0
        assert [os.path.basename(p) for p in kept_copies] == ["mid100.bin", "mid200.bin"]

        compared = [name for name in FIT_OUTPUT_FILES
                    if name not in ("manifest.json", "checkpoint.bin")]
        for name in compared:
            with open(os.path.join(mid_dir, name), "rb") as fh_a, \
                 open(os.path.join(fit_dir, name), "rb") as fh_b:
                assert fh_a.read() == fh_b.read(), name

        resume_dir = str(tmp_path / "resumed")
        rc = main([
            *FIT_ARGS, "--data.dir", sim_dir, "--out", resume_dir,
            "--resume", kept_copies[0],
        ])
        assert rc == 0
        assert "resuming from" in capsys.readouterr().err
        for name in compared:
            with open(os.path.join(resume_dir, name), "rb") as fh_a, \
                 open(os.path.join(fit_dir, name), "rb") as fh_b:
                assert fh_a.read() == fh_b.read(), name

    def test_resume_rejects_mismatched_config(self, sim_dir, fit_dir, tmp_path, capsys):
        checkpoint = os.path.join(fit_dir, "checkpoint.bin")
        rc = main([
            "fit", "--data.dir", sim_dir, "--out", str(tmp_path / "out"),
            "--iterations", "240", "--burn-in", "40", "--set", "sampler.thin=2",
            "--seed", "9", "--fdr", "0.2", "--resume", checkpoint,
        ])
        assert rc == 1
        assert "checkpoint seed=2 does not match config seed=9" in capsys.readouterr().err


    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_exits_1(self, sim_dir, fit_dir, tmp_path, capsys, case):
        write, named = MALFORMED_CHECKPOINTS[case]
        bad = str(tmp_path / "bad.bin")
        write(os.path.join(fit_dir, "checkpoint.bin"), bad)
        rc = main([
            *FIT_ARGS, "--data.dir", sim_dir, "--out", str(tmp_path / "out"), "--resume", bad,
        ])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert f"error: {bad}: " in err
        assert named in err


# ---------------- summarize ----------------


class TestSummarizeCommand:
    def test_writes_summary_products(self, sim_dir, fit_dir, tmp_path):
        out = str(tmp_path / "summary")
        assert main(["summarize", fit_dir, "--out", out]) == 0
        for name in ("ppi_long.csv", "qvalues.tsv", "selected.tsv",
                      "summary.json", "metrics.tsv", "manifest.json"):
            assert os.path.exists(os.path.join(out, name)), name
        summary = read_json(os.path.join(out, "summary.json"))
        assert summary["kind"] == "cnvlink-summary"
        assert summary["fit_dir"] == fit_dir
        assert summary["fdr_target"] == 0.2
        assert summary["metrics_written"] is True
        assert summary["seed"] == 2
        lines = open(os.path.join(out, "selected.tsv"), encoding="utf-8").read().splitlines()
        assert summary["n_selected"] == len(lines) - 1
        side_manifest = read_json(os.path.join(out, "manifest.json"))
        assert side_manifest["kind"] == "cnvlink-summary"

    def test_ppi_long_csv_matches_the_matrix(self, fit_dir, tmp_path):
        out = str(tmp_path / "summary")
        assert main(["summarize", fit_dir, "--out", out]) == 0
        ppi, genes, probes = read_matrix_tsv(os.path.join(fit_dir, "ppi.tsv"))
        lines = open(os.path.join(out, "ppi_long.csv"), encoding="utf-8").read().splitlines()
        assert lines[0] == "gene,probe,ppi"
        assert len(lines) == 1 + 3 * 12
        gene, probe, value = lines[1].split(",")
        assert (gene, probe) == (genes[0], probes[0])
        assert float(value) == ppi[0, 0]

    def test_metrics_table_includes_state_errors(self, fit_dir, tmp_path):
        out = str(tmp_path / "summary")
        assert main(["summarize", fit_dir, "--out", out]) == 0
        lines = open(os.path.join(out, "metrics.tsv"), encoding="utf-8").read().splitlines()
        header = lines[0].split("\t")
        assert header == [
            "run", "sensitivity", "specificity", "tp", "fp", "fn", "tn",
            "detections", "threshold", "realized_fdr",
            "state_errors", "state_error_pct",
        ]
        assert len(lines) == 2
        assert lines[1].split("\t")[0] == "r0001"

    def test_unit_fdr_selects_every_positive_pair(self, fit_dir, tmp_path):
        out = str(tmp_path / "summary")
        assert main(["summarize", fit_dir, "--fdr", "1.0", "--out", out]) == 0
        ppi, _, _ = read_matrix_tsv(os.path.join(fit_dir, "ppi.tsv"))
        summary = read_json(os.path.join(out, "summary.json"))
        positive = ppi > 0
        assert summary["n_selected"] == int(positive.sum())
        assert summary["fdr_target"] == 1.0
        if positive.any():
            lam = 1.0 - ppi
            assert summary["threshold"] == float(lam[positive].max())
            assert summary["realized_fdr"] == pytest.approx(
                float(lam[lam <= summary["threshold"]].mean())
            )

    def test_defaults_write_back_into_the_fit_directory(self, fit_dir, capsys):
        assert main(["summarize", fit_dir]) == 0
        assert os.path.exists(os.path.join(fit_dir, "ppi_long.csv"))
        assert os.path.exists(os.path.join(fit_dir, "summary.json"))
        assert "summarize:" in capsys.readouterr().err

    def test_rejects_non_fit_directories(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path)]) == 1
        assert "does not look like a fit output" in capsys.readouterr().err

    def test_detects_dataset_manifest_drift(self, sim_dir, fit_dir, tmp_path, capsys):
        manifest_path = os.path.join(sim_dir, "manifest.json")
        original = open(manifest_path, "rb").read()
        try:
            drifted = read_json(manifest_path)
            drifted["seed"] = 999
            with open(manifest_path, "w", encoding="utf-8") as fh:
                json.dump(drifted, fh)
            rc = main(["summarize", fit_dir, "--out", str(tmp_path / "a")])
            assert rc == 1
            assert "has changed since the fit" in capsys.readouterr().err
            rc = main(["summarize", fit_dir, "--force", "--out", str(tmp_path / "b")])
            assert rc == 0
            assert os.path.exists(os.path.join(tmp_path, "b", "metrics.tsv"))
        finally:
            with open(manifest_path, "wb") as fh:
                fh.write(original)

    def test_without_truth_files_metrics_are_omitted(self, sim_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(sim_dir, data)
        for name in ("R_true.tsv", "xi_true.tsv", "beta_true.tsv"):
            (data / name).unlink()
        fit_out = str(tmp_path / "fit")
        rc = main([
            "fit", "--data.dir", str(data), "--iterations", "40",
            "--burn-in", "10", "--seed", "3", "--out", fit_out,
        ])
        assert rc == 0
        capsys.readouterr()
        assert main(["summarize", fit_out]) == 0
        assert "no truth files, metrics omitted" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(fit_out, "metrics.tsv"))
        summary = read_json(os.path.join(fit_out, "summary.json"))
        assert summary["metrics_written"] is False


# ---------------- diagnose ----------------


class TestDiagnoseCommand:
    def test_writes_diagnostics_for_every_scalar_series(self, fit_dir, tmp_path, capsys):
        out = str(tmp_path / "diag")
        assert main(["diagnose", fit_dir, "--out", out]) == 0
        assert "wrote diagnostics for 14 series" in capsys.readouterr().err
        lines = open(os.path.join(out, "diagnostics.csv"), encoding="utf-8").read().splitlines()
        assert lines[0] == (
            "label,n,geweke_z,hw_passes,hw_burn_in_fraction,hw_statistic,status"
        )
        assert len(lines) == 15
        statuses = [line.split(",")[-1] for line in lines[1:]]
        assert set(statuses) <= {"ok", "degenerate"}
        assert "ok" in statuses
        for line in lines[1:]:
            assert len(line.split(",")) == 7
        report = open(os.path.join(out, "report.txt"), encoding="utf-8").read()
        assert "convergence diagnostics over 100 retained samples" in report
        assert "largest |z| among valid series" in report

    def test_defaults_to_the_fit_directory(self, fit_dir):
        assert main(["diagnose", fit_dir]) == 0
        assert os.path.exists(os.path.join(fit_dir, "diagnostics.csv"))
        assert os.path.exists(os.path.join(fit_dir, "report.txt"))

    def test_rejects_directories_without_traces(self, tmp_path, capsys):
        assert main(["diagnose", str(tmp_path)]) == 1
        assert "holds no traces.tsv" in capsys.readouterr().err
