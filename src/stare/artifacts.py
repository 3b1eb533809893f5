"""Artifact files: one writer that never leaves a partial file, one reader
that decides what a readable file is, one type rule for every JSON field a
loader reads, and one check of the settings an artifact was built under.

``atomic_write`` fills ``<name>.tmp<pid>`` beside the target and moves it over
the target only on a clean exit: a failed write leaves the old file as it was,
and a killed one can leave the temp file, never half an artifact.

A file that is not UTF-8, not JSON, or of another ``format_version`` is one
ValueError that names it once, as ``path:line`` for line-delimited files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import reprlib
import types
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np


@contextlib.contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """A file open for writing whose bytes replace ``path`` on a clean exit;
    text is UTF-8 with no newline translation."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with (open(tmp, "wb") if binary
              else open(tmp, "w", encoding="utf-8", newline="")) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: str | Path, payload, indent: int | None = None) -> None:
    """A NaN or infinity is a FloatingPointError naming ``path``; nothing is written."""
    try:
        text = json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"{path}: {exc}") from None
    with atomic_write(path) as fh:
        fh.write(text)


def write_jsonl(path: str | Path, rows: Iterable) -> None:
    """One ``sort_keys`` JSON value per line."""
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_header_blob(path: str | Path, header: dict,
                      arrays: Sequence[tuple[str, np.ndarray, tuple[int, ...]]]) -> None:
    """Write a params or index file: the JSON header line, then each
    (name, array, shape) array as raw float64, in order.

    Every shape is checked before anything is written (a ValueError
    naming the array); ``atomic_write`` writes the file whole.
    """
    blobs = []
    for name, arr, shape in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        if arr.shape != tuple(shape):
            raise ValueError(f"{name}: {arr.shape} != {tuple(shape)}")
        blobs.append(arr)
    with atomic_write(path, binary=True) as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for arr in blobs:
            fh.write(arr)


def read_text(path: str | Path, data: bytes | None = None) -> str:
    """``path``'s bytes, or ``data`` read from it, as UTF-8; a ValueError
    naming ``path`` if they are not UTF-8."""
    try:
        return (Path(path).read_bytes() if data is None else data).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 ({exc})") from None


def read_json(path: str | Path, version: int | None = None, text: str | None = None):
    """The JSON value of the UTF-8 file ``path``, or of ``text`` read from it
    at ``path`` (``"path:line"`` for a line); a ValueError naming ``path`` if
    it is not JSON or, given a ``version``, not an object of that ``format_version``."""
    try:
        value = json.loads(read_text(path) if text is None else text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if version is not None and not (isinstance(value, dict)
                                    and value.get("format_version") == version):
        raise ValueError(f"{path}: not a version {version} file")
    return value


def read_lines(path: str | Path) -> Iterator[tuple[str, str]]:
    """(``"path:line"``, line) for each line of a UTF-8 file, split as a
    text-mode ``open`` splits it: ``\\r\\n`` and ``\\r`` end a line as ``\\n`` does."""
    for lineno, line in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        yield f"{path}:{lineno}", line


def read_jsonl(path: str | Path) -> Iterator[tuple[str, object]]:
    """(``"path:line"``, value) for each non-blank line."""
    return ((where, read_json(where, text=line)) for where, line in read_lines(path)
            if line.strip())


def read_header_blob(path: str | Path, version: int,
                     hints: dict[str, object]) -> tuple[list, bytes]:
    """The values of ``hints``' header keys, and the blob, of a
    ``write_header_blob`` file; a ValueError naming the file if the header is
    unreadable or fails ``hints``, or the blob holds a NaN or infinity.
    The blob is immutable bytes, read once: loaded arrays are read-only views."""
    with open(path, "rb") as fh:
        header = read_json(path, version, read_text(path, fh.readline()))
        values = fields(str(path), header, hints)
        # Read past the buffer: fh.read() would join its read-ahead to the rest, a second copy.
        fh.raw.seek(fh.tell())
        blob = fh.raw.readall()
    if not np.isfinite(np.frombuffer(blob, np.float64, len(blob) // 8)).all():
        raise ValueError(f"{path}: holds a NaN or infinity")
    return values, blob


def fits(value, hint) -> bool:
    """Whether a JSON value matches a type, a union such as ``X | None``,
    ``list[X]``, ``set[X]`` (a list of distinct X) or ``dict[K, X]``; bools
    are not numbers, ints pass as floats, and a NaN or infinity is not a float."""
    if isinstance(hint, types.UnionType):
        return any(fits(value, option) for option in hint.__args__)
    if isinstance(hint, types.GenericAlias) and hint.__origin__ in (list, set):
        (item,) = hint.__args__
        return (isinstance(value, list) and all(fits(x, item) for x in value)
                and (hint.__origin__ is list or len(set(value)) == len(value)))
    if isinstance(hint, types.GenericAlias) and hint.__origin__ is dict:
        key, item = hint.__args__
        return isinstance(value, dict) and all(fits(k, key) and fits(v, item)
                                               for k, v in value.items())
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    return isinstance(value, hint)


def fields(where: str, obj, hints: dict[str, object]) -> list:
    """The values of ``hints``' keys in ``obj``, in order; a ValueError naming
    ``where`` and the key when ``obj`` is not an object, lacks the key, or
    holds a value that does not ``fits`` its hint."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {reprlib.repr(obj)}")
    for key, hint in hints.items():
        if key not in obj:
            raise ValueError(f"{where}: lacks key {key!r}")
        if not fits(obj[key], hint):
            name = hint.__name__ if type(hint) is type else hint
            raise ValueError(f"{where}: {key!r} must be {name}, got {reprlib.repr(obj[key])}")
    return [obj[key] for key in hints]


def check_built(where: str, section: str, built: dict, wanted: dict, stage: str) -> None:
    """Refuse an artifact that ``stage`` built under other ``section`` settings."""
    for key, value in wanted.items():
        if built[key] != value:
            raise ValueError(f"{where}: built with {section}.{key} = {built[key]!r}, "
                             f"but the config has {value!r}; rerun '{stage}'")
