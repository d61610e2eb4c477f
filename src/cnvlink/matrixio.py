"""Persistence: labeled TSV matrices, JSON manifests, binary checkpoints.

Matrices are tab-separated UTF-8 with a label row and label column; floats
carry 17 significant digits so a reload is value-exact. All writes go through
a temp file in the destination directory followed by an atomic rename.

Checkpoints use a little binary framing: 4-byte magic, 1 version byte, then
length-prefixed sections (8-byte big-endian lengths). Section 0 is a JSON
header describing the run coordinates, RNG state, and every array's dtype and
shape; the remaining sections are the arrays' raw bytes in header order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import tempfile

import numpy as np

from .model import ValidationError
from .sampler import Checkpoint

CHECKPOINT_MAGIC = b"CVLK"
CHECKPOINT_VERSION = 1

#: Checkpoint fields by kind, in declaration order: integers and dicts go in
#: the header (mapped to the type a loaded header must give them), arrays in
#: their own sections (the annotations are strings).
_HEADER_FIELDS = {
    f.name: int if f.type == "int" else dict
    for f in dataclasses.fields(Checkpoint)
    if f.type != "np.ndarray"
}
_ARRAY_SECTIONS = tuple(f.name for f in dataclasses.fields(Checkpoint) if f.type == "np.ndarray")


def atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def format_value(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def default_labels(prefix: str, count: int) -> list[str]:
    width = max(4, len(str(count)))
    return [f"{prefix}{i + 1:0{width}d}" for i in range(count)]


def write_matrix_tsv(
    path: str,
    matrix: np.ndarray,
    row_labels=None,
    col_labels=None,
    corner: str = "id",
) -> None:
    matrix = np.asarray(matrix)
    if matrix.ndim == 1:
        matrix = matrix.reshape(-1, 1)
    if matrix.ndim != 2:
        raise ValidationError(f"can only serialize 2-d matrices, got shape {matrix.shape}")
    n_rows, n_cols = matrix.shape
    if row_labels is None:
        row_labels = default_labels("r", n_rows)
    if col_labels is None:
        col_labels = default_labels("c", n_cols)
    if len(row_labels) != n_rows or len(col_labels) != n_cols:
        raise ValidationError("label counts do not match the matrix shape")
    lines = ["\t".join([corner, *map(str, col_labels)])]
    int_like = np.issubdtype(matrix.dtype, np.integer) or matrix.dtype == bool
    for label, row in zip(row_labels, matrix):
        if int_like:
            cells = [str(int(v)) for v in row]
        else:
            cells = [format_value(v) for v in row]
        lines.append("\t".join([str(label), *cells]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_matrix_tsv(path: str, dtype=np.float64):
    """Returns (matrix, row_labels, col_labels)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise ValidationError(f"{path}: empty matrix file")
    header = lines[0].split("\t")
    col_labels = header[1:]
    row_labels = []
    rows = []
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) != len(header):
            raise ValidationError(
                f"{path}: row '{parts[0]}' has {len(parts) - 1} cells, "
                f"expected {len(col_labels)}"
            )
        row_labels.append(parts[0])
        rows.append(parts[1:])
    try:
        matrix = np.array(rows, dtype=dtype)
    except ValueError:
        convert = np.dtype(dtype).type
        for label, cells in zip(row_labels, rows):
            for col, cell in zip(col_labels, cells):
                try:
                    convert(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}: row '{label}', column '{col}': cell {cell!r} is not "
                        f"a valid {np.dtype(dtype).name}"
                    ) from None
        raise
    return matrix, row_labels, col_labels


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def config_hash(mapping: dict) -> str:
    canonical = json.dumps(mapping, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_checkpoint(path: str, checkpoint: Checkpoint) -> None:
    header = {name: getattr(checkpoint, name) for name in _HEADER_FIELDS}
    arrays = []
    blobs = []
    for name in _ARRAY_SECTIONS:
        arr = np.ascontiguousarray(getattr(checkpoint, name))
        arrays.append({"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header["arrays"] = arrays
    sections = [json.dumps(header, sort_keys=True).encode("utf-8"), *blobs]
    out = [CHECKPOINT_MAGIC, bytes([CHECKPOINT_VERSION])]
    for section in sections:
        out.append(struct.pack(">Q", len(section)))
        out.append(section)
    atomic_write_bytes(path, b"".join(out))


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        payload = fh.read()
    if payload[:4] != CHECKPOINT_MAGIC:
        raise ValidationError(f"{path}: not a checkpoint file (bad magic)")
    if len(payload) < 5:
        raise ValidationError(f"{path}: truncated checkpoint: no version byte")
    version = payload[4]
    if version != CHECKPOINT_VERSION:
        raise ValidationError(
            f"{path}: checkpoint version {version} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    offset = 5
    sections = []
    total = len(payload)
    while offset < total:
        if offset + 8 > total:
            raise ValidationError(f"{path}: truncated checkpoint section header")
        (length,) = struct.unpack_from(">Q", payload, offset)
        offset += 8
        if offset + length > total:
            raise ValidationError(f"{path}: truncated checkpoint section body")
        sections.append(payload[offset : offset + length])
        offset += length
    if not sections:
        raise ValidationError(f"{path}: checkpoint holds no sections")
    try:
        header = json.loads(sections[0].decode("utf-8"))
    except ValueError as err:
        raise ValidationError(f"{path}: checkpoint header is not JSON: {err}") from None
    if not isinstance(header, dict):
        raise ValidationError(f"{path}: checkpoint header is not a JSON object")
    specs = header.get("arrays", [])
    if not (isinstance(specs, list) and all(isinstance(spec, dict) for spec in specs)):
        raise ValidationError(f"{path}: checkpoint header key 'arrays' is not a list of objects")
    if len(sections) - 1 != len(specs):
        raise ValidationError(
            f"{path}: checkpoint header lists {len(specs)} arrays but "
            f"{len(sections) - 1} sections follow"
        )
    for name, kind in _HEADER_FIELDS.items():
        if not isinstance(header.get(name), kind):
            raise ValidationError(
                f"{path}: checkpoint header key '{name}' is missing or not {kind.__name__}"
            )
    fields = {name: header[name] for name in _HEADER_FIELDS}
    for spec, blob in zip(specs, sections[1:]):
        if spec.get("name") not in _ARRAY_SECTIONS:
            raise ValidationError(f"{path}: checkpoint array section {spec!r} has an unknown name")
        try:
            arr = np.frombuffer(blob, dtype=np.dtype(spec["dtype"]))
            fields[spec["name"]] = arr.reshape(tuple(spec["shape"])).copy()
        # numpy parses a dtype string with a shape prefix by literal_eval,
        # which raises SyntaxError
        except (KeyError, TypeError, ValueError, SyntaxError) as err:
            raise ValidationError(
                f"{path}: checkpoint array section {spec!r} cannot be read: {err}"
            ) from None
    missing = set(_ARRAY_SECTIONS) - set(fields)
    if missing:
        raise ValidationError(f"{path}: checkpoint missing arrays {sorted(missing)}")
    return Checkpoint(**fields)
