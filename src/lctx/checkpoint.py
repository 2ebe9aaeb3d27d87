"""The writer of every file lctx writes, and the checkpoint format.

Every output is written whole under its name plus ".tmp" and renamed over
the final path (replacing), so a process killed mid-write leaves the earlier
file (or none), never a torn one. There is no fsync: the rename covers
process death, not power loss. Text is UTF-8; JSONL, CSV and label files
write a lone surrogate as its backslash-u escape, vocabulary files refuse
one. A directory of several files is committed by a marker file (committing).
Every JSON object lctx reads (--config, --rules, markers) has one checker,
and every JSONL row (raw cases, task rows, prediction rows) another.

Checkpoint layout (little-endian): magic "LCTX", format version u32, array
count u32, then per array: name length u32 + UTF-8 name, rank u32, dims (u64
each), raw float32 payload, and the zlib.crc32 u32 of the array's record from
its name length through its payload. Version 1 files, written before the
checksum, have none and still load.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .tensor import Tensor

MAGIC = b"LCTX"
VERSION = 2


@contextlib.contextmanager
def replacing(path):
    """A binary file handle whose contents take `path`'s place only when the
    block completes; on any exit before that, `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str, errors: str = "strict") -> None:
    """`text` as UTF-8 in place of `path`; an encode error leaves `path` as it was."""
    data = text.encode("utf-8", errors)
    with replacing(path) as fh:
        fh.write(data)


def write_csv(path, header, rows) -> None:
    """The header, then `rows` (cells formatted by the caller), in the csv
    module's default dialect (CRLF line ends). Cells can hold input text, so a
    lone surrogate is written as its backslash-u escape."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buf.getvalue(), errors="backslashreplace")


@contextlib.contextmanager
def committing(directory, marker: str, text: str):
    """Yield `directory` (created if need be) for the block to write into. The
    file `marker` is removed first and written as `text` once the block
    completes, so a directory holding it holds a complete set."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / marker).unlink(missing_ok=True)
    yield directory
    write_text(directory / marker, text)


def read_json(path):
    """The JSON value in `path`; a ValueError naming the file when it is not JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


# field type: (what its JSON value must be, its test); a bool is not an int
_JSON_KINDS = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
    str: ("a string", lambda v: type(v) is str),
    dict: ("an object", lambda v: type(v) is dict),
    list[str]: ("a list of strings",
                lambda v: type(v) is list and all(type(x) is str for x in v)),
    tuple[int, ...] | None: ("null or a list of integers",
                             lambda v: v is None or type(v) is list
                             and all(type(x) is int for x in v)),
    dict[str, list[int]]: ("an object of shapes (lists of integers >= 0)",
                           lambda v: type(v) is dict and all(
                               type(s) is list and all(type(x) is int and x >= 0 for x in s)
                               for s in v.values())),
}


def check_json_object(given, kinds: dict, source: str, section: str = "",
                      required=()) -> None:
    """Refuse `given` unless it is a JSON object of `kinds` keys (name: field
    type) and values that holds every key in `required`; messages name
    `source`, the key and `section`, and echo a refused value as it reads,
    non-ASCII text included."""
    where = f"{section} section" if section else "top level"
    if not isinstance(given, dict):
        raise ValueError(f"{source} {where} must be a JSON object")
    for key, value in given.items():
        if key not in kinds:
            raise ValueError(f"unknown key {key!r} in the {where} of {source} "
                             f"(allowed: {', '.join(kinds)})")
        want, ok = _JSON_KINDS[kinds[key]]
        if not ok(value):
            raise ValueError(f"{source} {section + '.' if section else ''}{key} must be "
                             f"{want}, got {json.dumps(value, ensure_ascii=False)}")
    missing = [key for key in required if key not in given]
    if missing:
        raise ValueError(f"no {', '.join(map(repr, missing))} in the {where} of {source}")


# a row-field kind: (what a value must be, its test given the value and its row)
TEXT = ("a string", lambda v, row: type(v) is str)


def check_fields(rows, fields: dict, what: str, optional=()) -> None:
    """Refuse, naming `what`, the row and the field, a row that is not an
    object, or one without one of `fields` (name: kind) that is not in
    `optional`, or whose value fails the field's kind."""
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"{what} row {i} is not a JSON object")
        for key, (want, ok) in fields.items():
            if key not in row:
                if key in optional:
                    continue
                raise ValueError(f"{what} row {i} has no {key!r}")
            if not ok(row[key], row):
                raise ValueError(f"{what} row {i}: {key!r} must be {want}, "
                                 f"got {json.dumps(row[key], ensure_ascii=False)}")


def _array_header(encoded_name: bytes, dims) -> bytes:
    """An array's record before its payload: name length, name, rank, dims."""
    return struct.pack(f"<I{len(encoded_name)}sI{len(dims)}Q", len(encoded_name),
                       encoded_name, len(dims), *dims)


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    with replacing(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            data = np.ascontiguousarray(arr, dtype="<f4")
            header = _array_header(name.encode("utf-8"), data.shape)
            fh.write(header)
            fh.write(data.tobytes())
            fh.write(struct.pack("<I", zlib.crc32(data, zlib.crc32(header))))


def load_arrays(path) -> dict[str, np.ndarray]:
    """Every named array in the file; a file cut short, a checksum that does
    not match or a file otherwise malformed raises ValueError naming the
    file, and the array where it is known."""
    path = Path(path)
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            # checked before reading, so a corrupt length is never allocated
            if fh.tell() + n > size:
                raise ValueError(f"{path}: truncated checkpoint ({what})")
            return fh.read(n)

        def unpack(fmt: str, what: str) -> tuple:
            return struct.unpack(fmt, read(struct.calcsize(fmt), what))

        if read(4, "magic") != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        (version,) = unpack("<I", "version")
        if version not in (1, VERSION):
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        checksum = 4 if version > 1 else 0
        (count,) = unpack("<I", "array count")
        for i in range(count):
            (name_len,) = unpack("<I", f"name of array {i}")
            encoded = read(name_len, f"name of array {i}")
            try:
                name = encoded.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: the name of array {i} is not UTF-8") from None
            (rank,) = unpack("<I", f"rank of array {name!r}")
            dims = unpack(f"<{rank}Q", f"dims of array {name!r}")
            n = 4 * math.prod(dims)
            record = read(n + checksum, f"payload of array {name!r}"
                          + (" and its checksum" if checksum else ""))
            payload = memoryview(record)[:n]     # no copy of the payload
            if checksum and zlib.crc32(payload, zlib.crc32(_array_header(encoded, dims))) \
                    != int.from_bytes(record[n:], "little"):
                raise ValueError(f"{path}: checksum mismatch in array {name!r} (corrupt file)")
            out[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        if fh.tell() != size:
            raise ValueError(f"{path}: {size - fh.tell()} bytes after the last array")
    return out


def save_params(path, params: dict[str, Tensor]) -> None:
    """Write each parameter's data under its name."""
    save_arrays(path, {name: p.data for name, p in params.items()})


def load_matching_arrays(path, shapes: dict[str, tuple], what: str) -> dict[str, np.ndarray]:
    """The arrays of the checkpoint at `path`, which must hold exactly the
    names of `shapes` (name: shape) at those shapes; otherwise ValueError
    names the file, `what` the arrays are for and every offending array."""
    arrays = load_arrays(path)
    problems = [f"missing {name!r}" for name in shapes if name not in arrays]
    problems += [f"unexpected {name!r}" for name in arrays if name not in shapes]
    problems += [f"{name!r} is {arrays[name].shape} in the checkpoint, {shape} in the {what}"
                 for name, shape in shapes.items()
                 if name in arrays and arrays[name].shape != shape]
    if problems:
        raise ValueError(f"{path}: checkpoint does not match the {what}: " + "; ".join(problems))
    return arrays


def load_params(path, params: dict[str, Tensor]) -> None:
    """Overwrite each parameter's data from the checkpoint at `path`, cast to
    the parameter's dtype. The checkpoint must hold exactly these names at
    these shapes (load_matching_arrays); otherwise no parameter changes."""
    arrays = load_matching_arrays(path, {name: p.shape for name, p in params.items()}, "model")
    for name, p in params.items():
        p.data = arrays[name].astype(p.data.dtype, copy=False)
