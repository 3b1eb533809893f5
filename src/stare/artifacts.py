"""Artifact files: one writer that never leaves a partial file, and one type
rule for every JSON field a loader reads.

``atomic_write`` fills ``<name>.tmp<pid>`` beside the target and moves it over
the target only on a clean exit: a failed write leaves the old file as it was,
and a killed one can leave the temp file, never half an artifact.
"""

from __future__ import annotations

import contextlib
import json
import os
import reprlib
import types
from pathlib import Path
from typing import IO, Iterable, Iterator


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
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=indent, sort_keys=True))


def write_jsonl(path: str | Path, rows: Iterable) -> None:
    """One ``sort_keys`` JSON value per line."""
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_jsonl(path: str | Path) -> Iterator[tuple[str, object]]:
    """(``"path:line"``, value) for each non-blank line; bad JSON is a
    ValueError naming ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                where = f"{path}:{lineno}"
                try:
                    value = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{where}: invalid JSON ({exc})") from None
                yield where, value


def fits(value, hint) -> bool:
    """Whether a JSON value matches a type, a union such as ``X | None``, or
    ``list[X]``; bools are not numbers, and ints pass as floats."""
    if isinstance(hint, types.UnionType):
        return any(fits(value, option) for option in hint.__args__)
    if isinstance(hint, types.GenericAlias) and hint.__origin__ is list:
        (item,) = hint.__args__
        return isinstance(value, list) and all(fits(x, item) for x in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


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
