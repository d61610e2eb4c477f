"""Persistence layer: atomic writes, labeled TSV matrices, JSON manifests,
config hashes, and binary checkpoint framing."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnvlink.matrixio import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    atomic_write_bytes,
    atomic_write_text,
    config_hash,
    default_labels,
    format_value,
    load_checkpoint,
    read_json,
    read_matrix_tsv,
    save_checkpoint,
    write_json,
    write_matrix_tsv,
)
from cnvlink.model import ValidationError
from cnvlink.sampler import Checkpoint, run_chain

from helpers import MALFORMED_CHECKPOINTS, make_cfg, make_ctx


# ---------------- atomic writes ----------------


class TestAtomicWrite:
    def test_bytes_written_exactly_and_no_temp_residue(self, tmp_path):
        payload = b"\x00\x01CVLK\xff" + bytes(range(256))
        target = tmp_path / "blob.bin"
        atomic_write_bytes(str(target), payload)
        assert target.read_bytes() == payload
        assert os.listdir(tmp_path) == ["blob.bin"]

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "note.txt"
        atomic_write_text(str(target), "first version\n")
        atomic_write_text(str(target), "second version\n")
        assert target.read_text(encoding="utf-8") == "second version\n"
        assert os.listdir(tmp_path) == ["note.txt"]

    def test_text_is_utf8(self, tmp_path):
        target = tmp_path / "unicode.txt"
        atomic_write_text(str(target), "µ ≤ σ²\n")
        assert target.read_bytes() == "µ ≤ σ²\n".encode("utf-8")


# ---------------- cell formatting ----------------


class TestFormatValue:
    def test_booleans_become_single_digits(self):
        assert format_value(True) == "1"
        assert format_value(False) == "0"
        assert format_value(np.bool_(True)) == "1"
        assert format_value(np.bool_(False)) == "0"

    def test_integers_have_no_decimal_point(self):
        assert format_value(42) == "42"
        assert format_value(-7) == "-7"
        assert format_value(np.int64(-3)) == "-3"
        assert format_value(np.int32(0)) == "0"

    def test_floats_carry_seventeen_significant_digits(self):
        assert format_value(0.1) == "0.10000000000000001"

    @pytest.mark.parametrize(
        "value",
        [0.1, 1.0 / 3.0, math.pi, -math.e, 1e-300, 1e300, 123456.789, -0.0, 5e-324],
    )
    def test_float_round_trip_is_value_exact(self, value):
        assert float(format_value(value)) == value


# ---------------- default labels ----------------


class TestDefaultLabels:
    def test_small_counts_pad_to_four_digits(self):
        assert default_labels("r", 3) == ["r0001", "r0002", "r0003"]

    def test_width_grows_with_count(self):
        labels = default_labels("p", 10000)
        assert len(labels) == 10000
        assert labels[0] == "p00001"
        assert labels[-1] == "p10000"

    def test_zero_count_gives_empty_list(self):
        assert default_labels("g", 0) == []


# ---------------- labeled TSV matrices ----------------


class TestMatrixTsv:
    def test_float_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        matrix = rng.normal(size=(4, 3))
        matrix[0, 0] = 1e-300
        matrix[1, 1] = -1e300
        matrix[2, 2] = math.pi
        path = str(tmp_path / "m.tsv")
        rows = ["alpha", "beta", "gamma", "delta"]
        cols = ["u", "v", "w"]
        write_matrix_tsv(path, matrix, rows, cols)
        loaded, row_labels, col_labels = read_matrix_tsv(path)
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded, matrix)
        assert row_labels == rows
        assert col_labels == cols

    def test_default_labels_fill_in(self, tmp_path):
        path = str(tmp_path / "m.tsv")
        write_matrix_tsv(path, np.zeros((2, 3)))
        _, row_labels, col_labels = read_matrix_tsv(path)
        assert row_labels == ["r0001", "r0002"]
        assert col_labels == ["c0001", "c0002", "c0003"]

    def test_corner_cell_defaults_to_id(self, tmp_path):
        path = str(tmp_path / "m.tsv")
        write_matrix_tsv(path, np.zeros((1, 1)))
        first_line = open(path, encoding="utf-8").readline()
        assert first_line.startswith("id\t")

    def test_custom_corner_cell(self, tmp_path):
        path = str(tmp_path / "m.tsv")
        write_matrix_tsv(path, np.zeros((1, 1)), corner="probe")
        first_line = open(path, encoding="utf-8").readline()
        assert first_line.startswith("probe\t")

    def test_one_dimensional_input_becomes_a_column(self, tmp_path):
        path = str(tmp_path / "v.tsv")
        write_matrix_tsv(path, np.arange(3.0))
        loaded, _, col_labels = read_matrix_tsv(path)
        assert loaded.shape == (3, 1)
        assert col_labels == ["c0001"]
        assert np.array_equal(loaded[:, 0], np.arange(3.0))

    def test_integer_matrices_write_integer_cells(self, tmp_path):
        path = str(tmp_path / "i.tsv")
        matrix = np.array([[1, -2], [30, 4]], dtype=np.int64)
        write_matrix_tsv(path, matrix)
        body = open(path, encoding="utf-8").read()
        assert "." not in body.split("\n", 1)[1]
        loaded, _, _ = read_matrix_tsv(path, dtype=np.int64)
        assert loaded.dtype == np.int64
        assert np.array_equal(loaded, matrix)

    def test_boolean_matrices_write_zeros_and_ones(self, tmp_path):
        path = str(tmp_path / "b.tsv")
        write_matrix_tsv(path, np.array([[True, False]]))
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[1] == "r0001\t1\t0"

    @pytest.mark.parametrize("dtype,cell,kind", [
        (np.float64, "abc", "float64"),
        (np.float64, "", "float64"),
        (np.int64, "1.5", "int64"),
    ])
    def test_non_numeric_cell_names_file_row_and_column(self, tmp_path, dtype, cell, kind):
        path = str(tmp_path / "m.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"id\tu\tv\nalpha\t1\t2\nbeta\t3\t{cell}\n")
        message = f"{path}: row 'beta', column 'v': cell '{cell}' is not a valid {kind}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            read_matrix_tsv(path, dtype=dtype)

    def test_rejects_higher_dimensional_input(self, tmp_path):
        with pytest.raises(ValidationError, match="can only serialize 2-d matrices"):
            write_matrix_tsv(str(tmp_path / "x.tsv"), np.zeros((2, 2, 2)))

    @pytest.mark.parametrize(
        "rows,cols",
        [(["a"], None), (None, ["a"]), (["a", "b", "c"], ["u", "v"])],
    )
    def test_rejects_mismatched_label_counts(self, tmp_path, rows, cols):
        with pytest.raises(ValidationError, match="label counts do not match"):
            write_matrix_tsv(str(tmp_path / "x.tsv"), np.zeros((2, 2)), rows, cols)

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("\n  \n", encoding="utf-8")
        with pytest.raises(ValidationError, match="empty matrix file"):
            read_matrix_tsv(str(path))

    def test_read_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.tsv"
        path.write_text("id\tu\tv\tw\nr1\t1.0\t2.0\n", encoding="utf-8")
        with pytest.raises(
            ValidationError, match="row 'r1' has 2 cells, expected 3"
        ):
            read_matrix_tsv(str(path))

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.tsv"
        path.write_text(
            "id\tu\n\nr1\t1.5\n   \nr2\t2.5\n\n", encoding="utf-8"
        )
        loaded, row_labels, _ = read_matrix_tsv(str(path))
        assert row_labels == ["r1", "r2"]
        assert np.array_equal(loaded, np.array([[1.5], [2.5]]))


# ---------------- JSON ----------------


class TestJson:
    def test_round_trip_with_sorted_keys_and_trailing_newline(self, tmp_path):
        path = str(tmp_path / "m.json")
        obj = {"zeta": [1, 2.5, None], "alpha": {"y": True, "x": "s"}}
        write_json(path, obj)
        text = open(path, encoding="utf-8").read()
        assert text.endswith("\n")
        assert text.index('"alpha"') < text.index('"zeta"')
        assert text.index('"x"') < text.index('"y"')
        assert read_json(path) == obj


# ---------------- config hashes ----------------


class TestConfigHash:
    def test_is_sha256_hex(self):
        digest = config_hash({"a": 1})
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    def test_insensitive_to_key_insertion_order(self):
        first = {"sampler.seed": 3, "fit.fdr": 0.05, "out.dir": None}
        second = {"out.dir": None, "fit.fdr": 0.05, "sampler.seed": 3}
        assert config_hash(first) == config_hash(second)

    def test_sensitive_to_any_value_change(self):
        base = {"a": 1, "b": {"c": [1, 2]}}
        assert config_hash(base) != config_hash({"a": 2, "b": {"c": [1, 2]}})
        assert config_hash(base) != config_hash({"a": 1, "b": {"c": [1, 3]}})
        assert config_hash(base) != config_hash({"a": 1, "b": {"c": [1, 2]}, "d": 0})

    def test_canonical_form_is_compact_sorted_json(self):
        expected = hashlib.sha256(b'{"a":1,"b":[2,true]}').hexdigest()
        assert config_hash({"b": [2, True], "a": 1}) == expected


# ---------------- checkpoints ----------------


@pytest.fixture(scope="module")
def chain_checkpoint(tmp_path_factory):
    """A real mid-run checkpoint plus the full-run trace it belongs to: a
    thinned run checkpointed before and after its burn-in."""
    cfg = make_cfg(iterations=20, burn_in=8, thin=2, seed=3)
    ctx = make_ctx(n=8, n_genes=3, n_probes=6, seed=5, cfg=cfg)
    saved = []
    trace = run_chain(ctx, checkpoint_every=9, on_checkpoint=saved.append)
    assert [cp.iteration for cp in saved] == [9, 18, 20]
    assert [cp.kept for cp in saved] == [1, 5, 6]
    path = str(tmp_path_factory.mktemp("ckpt") / "checkpoint.bin")
    save_checkpoint(path, saved[0])
    return saved[0], trace, path, ctx, cfg


class TestCheckpointRoundTrip:
    def test_all_fields_survive_a_round_trip(self, chain_checkpoint):
        original, _, path, _, _ = chain_checkpoint
        loaded = load_checkpoint(path)
        assert isinstance(loaded, Checkpoint)
        for name in ("iteration", "iterations", "burn_in", "thin", "seed", "kept"):
            assert getattr(loaded, name) == getattr(original, name)
        assert loaded.rng_state == original.rng_state
        assert loaded.stats == original.stats
        for field in dataclasses.fields(Checkpoint):
            value = getattr(original, field.name)
            if isinstance(value, np.ndarray):
                restored = getattr(loaded, field.name)
                assert restored.dtype == value.dtype, field.name
                assert np.array_equal(restored, value), field.name

    def test_serialization_is_deterministic(self, chain_checkpoint, tmp_path):
        _, _, path, _, _ = chain_checkpoint
        second = str(tmp_path / "again.bin")
        save_checkpoint(second, load_checkpoint(path))
        assert open(second, "rb").read() == open(path, "rb").read()

    def test_resuming_from_disk_matches_the_uninterrupted_run(self, chain_checkpoint):
        _, full_trace, path, ctx, cfg = chain_checkpoint
        resumed = run_chain(ctx, resume=load_checkpoint(path))
        assert resumed.n_kept == full_trace.n_kept
        assert np.array_equal(resumed.assoc_counts, full_trace.assoc_counts)
        assert np.array_equal(resumed.state_counts, full_trace.state_counts)
        assert np.array_equal(resumed.means_samples, full_trace.means_samples)
        assert np.array_equal(resumed.sds_samples, full_trace.sds_samples)
        assert np.array_equal(resumed.trans_samples, full_trace.trans_samples)
        assert np.array_equal(resumed.log_posterior, full_trace.log_posterior)
        assert resumed.acceptance == full_trace.acceptance

    def test_file_starts_with_magic_and_version(self, chain_checkpoint):
        _, _, path, _, _ = chain_checkpoint
        head = open(path, "rb").read(5)
        assert head[:4] == CHECKPOINT_MAGIC == b"CVLK"
        assert head[4] == CHECKPOINT_VERSION == 1

    def test_header_section_is_json_describing_every_array(self, chain_checkpoint):
        original, _, path, _, _ = chain_checkpoint
        payload = open(path, "rb").read()
        (length,) = struct.unpack_from(">Q", payload, 5)
        header = json.loads(payload[13 : 13 + length].decode("utf-8"))
        assert header["iteration"] == original.iteration
        assert {"rng_state", "stats", "arrays"} <= set(header)
        names = [spec["name"] for spec in header["arrays"]]
        assert names == [
            "assoc", "states", "trans", "means", "sds", "stat_dist",
            "gene_loglik", "persist_counts", "assoc_counts", "state_counts",
            "means_samples", "sds_samples", "trans_samples", "assoc_size",
            "occupancy", "log_posterior",
        ]
        for spec in header["arrays"]:
            arr = getattr(original, spec["name"])
            assert spec["dtype"] == arr.dtype.str
            assert tuple(spec["shape"]) == arr.shape

    def test_noncontiguous_arrays_are_serialized_correctly(
        self, chain_checkpoint, tmp_path
    ):
        original, _, _, _, _ = chain_checkpoint
        strided = dataclasses.replace(
            original,
            assoc=original.assoc.T.copy().T,
            trans=np.asfortranarray(original.trans),
        )
        assert not strided.assoc.flags["C_CONTIGUOUS"]
        assert not strided.trans.flags["C_CONTIGUOUS"]
        path = str(tmp_path / "strided.bin")
        save_checkpoint(path, strided)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.assoc, original.assoc)
        assert np.array_equal(loaded.trans, original.trans)


class TestCheckpointErrors:
    def test_rejects_bad_magic(self, chain_checkpoint, tmp_path):
        _, _, path, _, _ = chain_checkpoint
        payload = open(path, "rb").read()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX" + payload[4:])
        with pytest.raises(ValidationError, match="not a checkpoint file \\(bad magic\\)"):
            load_checkpoint(str(bad))

    def test_rejects_unknown_version(self, chain_checkpoint, tmp_path):
        _, _, path, _, _ = chain_checkpoint
        payload = open(path, "rb").read()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(payload[:4] + b"\x02" + payload[5:])
        with pytest.raises(
            ValidationError, match="checkpoint version 2 unsupported \\(expected 1\\)"
        ):
            load_checkpoint(str(bad))

    def test_rejects_truncated_section_header(self, chain_checkpoint, tmp_path):
        _, _, path, _, _ = chain_checkpoint
        payload = open(path, "rb").read()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(payload[:5] + b"\x00\x00\x00")
        with pytest.raises(ValidationError, match="truncated checkpoint section header"):
            load_checkpoint(str(bad))

    def test_rejects_truncated_section_body(self, chain_checkpoint, tmp_path):
        _, _, path, _, _ = chain_checkpoint
        payload = open(path, "rb").read()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(payload[:-3])
        with pytest.raises(ValidationError, match="truncated checkpoint section body"):
            load_checkpoint(str(bad))

    def test_rejects_file_with_no_sections(self, chain_checkpoint, tmp_path):
        _, _, path, _, _ = chain_checkpoint
        payload = open(path, "rb").read()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(payload[:5])
        with pytest.raises(ValidationError, match="checkpoint holds no sections"):
            load_checkpoint(str(bad))

    def test_rejects_section_count_mismatch(self, chain_checkpoint, tmp_path):
        _, _, path, _, _ = chain_checkpoint
        payload = open(path, "rb").read()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(payload + struct.pack(">Q", 4) + b"junk")
        with pytest.raises(
            ValidationError, match="header lists 16 arrays but 17 sections follow"
        ):
            load_checkpoint(str(bad))

    def test_rejects_header_missing_arrays(self, tmp_path):
        header = {
            "iteration": 0, "iterations": 1, "burn_in": 0, "thin": 1,
            "seed": 0, "kept": 0, "rng_state": {}, "stats": {}, "arrays": [],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        bad = tmp_path / "bad.bin"
        bad.write_bytes(
            CHECKPOINT_MAGIC
            + bytes([CHECKPOINT_VERSION])
            + struct.pack(">Q", len(blob))
            + blob
        )
        with pytest.raises(ValidationError, match="checkpoint missing arrays") as exc:
            load_checkpoint(str(bad))
        assert "'assoc'" in str(exc.value)

    @staticmethod
    def loads_or_is_rejected(directory: str, payload: bytes) -> None:
        """``load_checkpoint`` on these bytes returns or raises ValidationError,
        never another exception."""
        # a new file each time: rewriting one file in place is slow on some
        # file systems, which flush the old blocks first
        fd, damaged = tempfile.mkstemp(dir=directory)
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        try:
            load_checkpoint(damaged)
        except ValidationError:
            pass
        finally:
            os.remove(damaged)

    def test_every_truncation_loads_or_is_rejected(self, chain_checkpoint):
        _, _, path, _, _ = chain_checkpoint
        with open(path, "rb") as fh:
            payload = fh.read()
        for length in range(len(payload)):
            self.loads_or_is_rejected(os.path.dirname(path), payload[:length])

    @settings(max_examples=1000, deadline=None)
    @given(data=st.data())
    def test_single_byte_change_loads_or_is_rejected(self, chain_checkpoint, data):
        _, _, path, _, _ = chain_checkpoint
        with open(path, "rb") as fh:
            payload = bytearray(fh.read())
        at = data.draw(st.integers(0, len(payload) - 1))
        # bytes that JSON and numpy's dtype strings give a meaning, or any byte
        byte = data.draw(st.one_of(st.sampled_from(b'0 9"[]{},:|<'), st.integers(0, 255)))
        payload[at] = byte
        self.loads_or_is_rejected(os.path.dirname(path), bytes(payload))

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_is_rejected_by_name(self, chain_checkpoint, tmp_path, case):
        _, _, path, ctx, _ = chain_checkpoint
        write, named = MALFORMED_CHECKPOINTS[case]
        bad = str(tmp_path / "bad.bin")
        write(path, bad)
        with pytest.raises(ValidationError, match=re.escape(named)):
            run_chain(ctx, resume=load_checkpoint(bad))
