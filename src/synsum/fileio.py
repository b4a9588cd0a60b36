"""Atomic file writes.

``atomic_write`` writes a temporary file beside the target and moves it over
the target with ``os.replace`` only once the whole block has run, so a
reader sees the old file or the complete new one, never part of one. A
block that raises removes the temporary file and leaves the old target, if
any, byte-identical.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import IO, Iterator

__all__ = ["atomic_write"]


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open ``.<name>.<pid>.tmp`` beside ``path`` for writing, in text
    (UTF-8, ``"w"``) or binary (``"wb"``) mode; on a normal exit replace
    ``path`` with it, on an exception delete it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    encoding = "utf-8" if mode == "w" else None
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
