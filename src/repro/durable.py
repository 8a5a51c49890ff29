"""Crash-durable files: atomic replaces, exclusive creates and line logs.

The durability-bearing layers — sweep exports and journals, the serving
cache and trace, the distrib ledger — promise that a reader never
observes a torn file.  A journal header torn by a kill mid-write is what
happens when that promise is kept by convention instead of by
construction.  This module is the construction, written once; no other
module of the package calls ``os.fsync`` or ``os.replace``, opens a file
for appending or creates one with ``O_EXCL``.

**Whole files** (:func:`atomic_write_bytes`): after a crash the target
holds the complete previous content or the complete new content.

* the new content goes to a ``mkstemp`` sibling in the *target's own
  directory* (same filesystem, so the final rename cannot degrade into a
  copy);
* the temp file is flushed and ``fsync``-ed before it is visible under
  the real name;
* ``os.replace`` publishes it atomically;
* the directory entry is fsync-ed afterwards (best-effort — not every
  platform allows directory fds) so the rename itself survives a crash.

**Line logs** (the run journal, the serve trace, and the grid files read
like them): one JSON object per line, appended with :func:`open_log` and
:func:`fsync_append`, read with :func:`read_log`.  One rule covers every
log.  A line counts once its newline is on disk.  A newline-less tail
is *torn* — dropped on read, cut by the next :func:`open_log` — when it
could begin a line the log writes (it is a prefix of one of the log's
``starts``, or one of them is a prefix of it) or when it fails to decode
after complete lines; any other tail is foreign content and raises the
log's own error.  A kill mid-append therefore loses only the line being
written, and a file that is not the log is never cut or read as one.

The static-analysis rule RPR003 (``repro.devtools.lint``) flags any raw
truncating or unfsynced appending write under ``sweep/``, ``serve/`` and
``distrib/``; routing through this module is how call sites satisfy it.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import IO, Callable, Dict, List, Sequence, Tuple, Union

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "create_exclusive",
    "fsync_append",
    "fsync_directory",
    "open_log",
    "read_log",
    "read_objects",
]

PathLike = Union[str, Path]
#: A log's own exception class (``JournalError``, ``TraceError``, ...).
LogError = Callable[[str], Exception]


def fsync_directory(directory: PathLike) -> None:
    """Flush a directory entry to disk, where the platform allows it."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return  # e.g. Windows: directories cannot be opened for fsync
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Durably replace ``path``'s content with ``data``; returns the path.

    The write is atomic with respect to concurrent readers (they see the
    old file or the new one, never a mixture) and durable across a crash
    once the call returns.
    """
    path = Path(path)
    fd, temp_name = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    fsync_directory(path.parent)
    return path


def atomic_write_text(path: PathLike, text: str,
                      encoding: str = "utf-8") -> Path:
    """Durably replace ``path``'s content with ``text``; returns the path."""
    return atomic_write_bytes(path, text.encode(encoding))


def create_exclusive(path: PathLike, data: bytes) -> bool:
    """Durably create ``path`` holding ``data``; ``False`` if it exists.

    ``O_CREAT | O_EXCL`` lets the filesystem arbitrate: of any number of
    racing creators exactly one gets ``True``.
    """
    try:
        fd = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    fsync_directory(Path(path).parent)
    return True


def _complete_end(data: bytes, path: PathLike, error: LogError, what: str,
                  starts: Sequence[str]) -> int:
    """Where the complete lines of ``data`` end; raises ``error`` when the
    newline-less rest is foreign content rather than a torn line."""
    end = data.rfind(b"\n") + 1
    tail = data[end:].decode("utf-8", "replace")
    if not tail.strip() or any(start.startswith(tail[:len(start)])
                               for start in starts):
        return end
    if data[:end].strip():
        try:
            json.loads(tail)
        except ValueError:
            return end
    raise error(f"{what} {path} ends in unrecognised content without a "
                "newline")


def read_log(path: PathLike, error: LogError, what: str,
             starts: Sequence[str]) -> List[Tuple[int, str]]:
    """``(line number, line)`` of every complete, non-blank line of the log.

    A torn tail is left out; foreign content, or a file that cannot be
    read, raises ``error`` naming ``what``.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    end = _complete_end(data, path, error, what, starts)
    return [(number, line) for number, line
            in enumerate(data[:end].decode("utf-8").split("\n"), start=1)
            if line.strip()]


def read_objects(path: PathLike, error: LogError, what: str,
                 starts: Sequence[str] = ()) -> List[Dict[str, object]]:
    """Every complete line of a JSON-lines file, decoded to objects.

    A line that is not a JSON object raises ``error``.  The default
    ``starts`` suits a file written whole, never appended to: none of its
    tails is a torn append.
    """
    objects: List[Dict[str, object]] = []
    for number, line in read_log(path, error, what, starts):
        try:
            payload = json.loads(line)
        except ValueError as exc:
            raise error(f"{what} {path} line {number} is not valid JSON: "
                        f"{exc}") from exc
        if not isinstance(payload, dict):
            raise error(f"{what} {path} line {number} is not a JSON object")
        objects.append(payload)
    return objects


def open_log(path: PathLike, error: LogError, what: str,
             starts: Sequence[str]) -> IO[str]:
    """Open the log at ``path`` for appending, first cutting a torn tail.

    Appending straight after a torn tail would merge the next line into
    the fragment, one complete but corrupt line that every later read
    refuses.  Foreign content raises ``error`` and is left as it is.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        data = b""
    end = _complete_end(data, path, error, what, starts)
    if end < len(data):
        with path.open("rb+") as handle:
            handle.truncate(end)
    return path.open("a", encoding="utf-8")


def fsync_append(handle: IO[str], line: str) -> None:
    """Append ``line`` and its newline to an :func:`open_log` handle,
    flushed and fsync-ed: the line is durable once this returns."""
    handle.write(line + "\n")
    handle.flush()
    os.fsync(handle.fileno())
