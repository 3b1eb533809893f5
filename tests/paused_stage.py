"""Run one ``stare`` command with its first artifact write held open, so a test
can SIGKILL the process at a known point.

    python paused_stage.py open|first_chunk <stare arguments>

``open`` pauses as the first ``artifacts.atomic_write`` is entered (also
where a module imported it by name), before any byte of an artifact exists;
``first_chunk`` pauses once that write's first chunk is flushed to its temp
file. At the pause the process prints ``paused <target path>`` on stdout and
sleeps until it is killed.
"""

from __future__ import annotations

import contextlib
import sys
import time

from stare import artifacts, cli


def _pause(path) -> None:
    print(f"paused {path}", flush=True)
    while True:
        time.sleep(60)


class _PauseAfterFirstWrite:
    def __init__(self, fh, path):
        self._fh, self._path = fh, path

    def write(self, data):
        self._fh.write(data)
        self._fh.flush()
        _pause(self._path)


def held_atomic_write(when: str):
    real = artifacts.atomic_write

    @contextlib.contextmanager
    def atomic_write(path, binary: bool = False):
        if when == "open":
            _pause(path)
        with real(path, binary) as fh:
            yield _PauseAfterFirstWrite(fh, path)

    return atomic_write


if __name__ == "__main__":
    when, argv = sys.argv[1], sys.argv[2:]
    if when not in ("open", "first_chunk"):
        sys.exit(f"unknown pause point {when!r}")
    real, held = artifacts.atomic_write, held_atomic_write(when)
    for module in list(sys.modules.values()):  # also where it was imported by name
        if getattr(module, "atomic_write", None) is real:
            module.atomic_write = held
    sys.exit(cli.main(argv))
