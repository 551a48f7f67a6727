"""Durable file primitives: sha256 digests and fsync-before-rename writes.

Every byte the artifact store (and ``MARIOH.save``) publishes goes
through :func:`atomic_write_bytes`: write to a temp file in the target
directory, flush, ``fsync``, ``os.replace`` over the final name, then
fsync the directory entry.  A process killed at any point leaves either
the complete old file or the complete new one - never a torn tail that
parses halfway.  :class:`~repro.resilience.checkpoint.CheckpointStore`
writes orchestrator and serve checkpoints through it as well.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Union

PathLike = Union[str, os.PathLike]

#: read granularity of :func:`sha256_file`.
_CHUNK = 1 << 20


def sha256_bytes(data: bytes) -> str:
    """Hex sha256 of ``data``."""
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: PathLike) -> str:
    """Hex sha256 of a file's bytes, read in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


def fsync_directory(path: PathLike) -> None:
    """Best-effort fsync of a directory entry (rename durability)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes) -> str:
    """Atomically publish ``data`` at ``path``; returns its hex sha256.

    Write order: temp file (same directory) -> flush -> fsync -> rename
    over ``path`` -> directory fsync.  On any failure the temp file is
    removed and the previous contents of ``path`` are untouched, so a
    reader can never observe a torn file under the final name.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "wb",
        dir=target.parent,
        prefix=target.name + ".",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    fsync_directory(target.parent)
    return sha256_bytes(data)


def atomic_write_text(path: PathLike, text: str) -> str:
    """UTF-8 convenience wrapper over :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode("utf-8"))
