"""Durable file commits: write, flush to stable storage, rename.

A rename alone is atomic but not durable: after a crash the new name
may point at a file whose data never reached the disk.  These helpers
fsync the data before the rename and the directory entry after it.
The evolution state (:mod:`repro.schema.evolution`) and the versioned
repository (:mod:`repro.mapping.versioned`) both commit through them.
"""

from __future__ import annotations

import os
from pathlib import Path


def fsync_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` and flush it to stable storage."""
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def link_or_copy(source: Path, target: Path) -> None:
    """Hard-link ``source`` at ``target``; where the filesystem refuses
    a link, write ``target`` as an fsync'd copy instead.  An existing
    ``target`` is an error: it may share its inode with another file."""
    try:
        os.link(source, target)
    except FileExistsError:
        raise
    except OSError:
        fsync_write(target, source.read_bytes())


def fsync_dir(directory: Path) -> None:
    """Flush a directory entry (rename durability); best-effort on
    filesystems that reject directory fsync."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_replace(target: Path, data: bytes) -> None:
    """Commit ``data`` at ``target`` via write-temp + fsync + rename."""
    temp = target.with_name(target.name + ".tmp")
    fsync_write(temp, data)
    os.replace(temp, target)
    fsync_dir(target.parent)
