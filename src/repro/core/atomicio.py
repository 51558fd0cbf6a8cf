"""Durable filesystem primitives: atomic writes and advisory locks.

Everything that persists run state — cache entries, traces, journal
segments, golden snapshots — funnels through these helpers so a crash
(SIGKILL, OOM, power loss) can never leave a *torn* file behind:

* :func:`atomic_write_text` writes to a process-unique temp file in the
  target directory, flushes and ``fsync``\\ s it, atomically renames it
  over the destination with :func:`os.replace`, and finally ``fsync``\\ s
  the parent directory so the rename itself is durable.  Readers see
  either the old complete file or the new complete file, never a prefix.
* :func:`durable_append` flushes and ``fsync``\\ s an open file after an
  append — the write-ahead-log primitive :mod:`repro.exec.journal`
  builds on.
* :class:`FileLock` is an advisory ``fcntl.flock`` lock (shared or
  exclusive) so concurrent ``repro`` processes sharing one cache
  directory serialise their metadata operations.  On platforms without
  ``fcntl`` it degrades to a no-op (the atomic renames above still keep
  individual files consistent).

Both write primitives pass through named *checkpoints* that an
installed I/O policy (:func:`set_io_policy` / :func:`io_policy`) can
observe or sabotage — short writes, failed ``fsync``/``replace``,
simulated power cuts (:class:`PowerCut`).  With no policy installed
(the default, and the only production configuration) the checkpoints
are a single ``None`` test per call.  :mod:`repro.chaos` builds its
deterministic crashpoint sweeps on this hook.

Crash cleanup tools live here too: :func:`repair_torn_tail` truncates
a line-oriented log back to its last complete record before a writer
appends (so a torn tail can never fuse with the next record), and
:func:`sweep_orphan_tmp` removes ``.<name>.<pid>.tmp`` files whose
writing process died between temp-write and rename.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import os
import re
import time
from pathlib import Path
from typing import Any, Iterator, List, Optional, Union

try:  # POSIX only; Windows falls back to lock-free atomic renames.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "atomic_write_text",
    "canonical_json",
    "durable_append",
    "fsync_dir",
    "FileLock",
    "FileLockTimeout",
    "PowerCut",
    "get_io_policy",
    "io_policy",
    "orphan_tmp_files",
    "repair_torn_tail",
    "set_io_policy",
    "sweep_orphan_tmp",
]


class PowerCut(BaseException):
    """A simulated power failure injected by an I/O fault policy.

    Deliberately a ``BaseException``: workload code that catches
    ``Exception`` to record a task failure must *not* absorb a
    simulated power cut — a real one stops the process everywhere at
    once.  Cleanup handlers treat it the same way: the torn temp file
    or half-written tail survives, exactly as it would on real
    hardware, and recovery code has to cope with it.
    """


#: The process-global I/O fault policy.  ``None`` (always, outside
#: chaos tooling) makes every checkpoint a no-op.
_io_policy: Optional[Any] = None


def set_io_policy(policy: Optional[Any]) -> Optional[Any]:
    """Install ``policy`` as the process-global I/O fault policy and
    return the previous one.  A policy is any object with a
    ``checkpoint(op, path, payload=None, fileobj=None)`` method; it may
    return normally (pass through), raise :class:`OSError` (injected
    EIO/ENOSPC on the exercised syscall), or write a partial payload
    itself and raise :class:`PowerCut`.  Pass ``None`` to uninstall."""
    global _io_policy
    previous, _io_policy = _io_policy, policy
    return previous


def get_io_policy() -> Optional[Any]:
    """The currently installed I/O fault policy, or ``None``."""
    return _io_policy


@contextlib.contextmanager
def io_policy(policy: Optional[Any]) -> Iterator[Optional[Any]]:
    """Context manager: install ``policy`` for the block, then restore
    whatever was installed before — even on :class:`PowerCut`."""
    previous = set_io_policy(policy)
    try:
        yield policy
    finally:
        set_io_policy(previous)


def _chk(
    op: str,
    path: Union[str, os.PathLike],
    payload: Optional[str] = None,
    fileobj: Any = None,
) -> None:
    """One named checkpoint inside a write primitive.  Free when no
    policy is installed; otherwise the policy decides what happens."""
    if _io_policy is not None:
        _io_policy.checkpoint(op, path, payload=payload, fileobj=fileobj)


class FileLockTimeout(TimeoutError):
    """A bounded :meth:`FileLock.acquire` expired while another process
    held the lock.  The message names the holder ("held by pid N since
    T") so a stuck queue is diagnosable from the exception alone."""


def fsync_dir(directory: Union[str, os.PathLike]) -> None:
    """``fsync`` a directory so a just-created/renamed entry survives a
    crash.  Best-effort: some filesystems refuse O_RDONLY on dirs."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystem
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on dirs
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: Union[str, os.PathLike],
    text: str,
    durable: bool = True,
) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the destination directory (same filesystem,
    so the rename is atomic) under a process-unique dotted name, and is
    removed on any failure.  ``durable=True`` additionally ``fsync``\\ s
    the temp file before the rename and the directory after it, closing
    the power-loss window where the rename exists but the data doesn't.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            _chk("write", path, payload=text, fileobj=f)
            f.write(text)
            if durable:
                f.flush()
                _chk("fsync", path)
                os.fsync(f.fileno())
        _chk("replace", path)
        os.replace(tmp, path)
    except PowerCut:
        # A simulated power cut skips cleanup on purpose: the real
        # thing leaves the orphan temp file behind, so the simulation
        # must too (that's what sweep_orphan_tmp exists to find).
        raise
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    if durable:
        fsync_dir(path.parent)
    _chk("commit", path, payload=text)
    return path


def durable_append(fileobj, text: str) -> None:
    """Append ``text`` to an open file and force it to stable storage
    (flush + ``fsync``) before returning — the WAL append primitive."""
    name = getattr(fileobj, "name", "<stream>")
    _chk("append", name, payload=text, fileobj=fileobj)
    fileobj.write(text)
    fileobj.flush()
    _chk("append_fsync", name)
    os.fsync(fileobj.fileno())


#: Temp files created by :func:`atomic_write_text`: ``.<name>.<pid>.tmp``.
_TMP_NAME_RE = re.compile(r"^\.(?P<name>.+)\.(?P<pid>\d+)\.tmp$")


def _pid_alive(pid: int) -> bool:
    """True if ``pid`` is a live process (EPERM counts as alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other user's process
        return True
    except OSError:  # pragma: no cover - exotic failure: assume alive
        return True
    return True


def orphan_tmp_files(
    directory: Union[str, os.PathLike], force: bool = False
) -> List[Path]:
    """Temp files in ``directory`` left by :func:`atomic_write_text`
    whose writing process is gone (crashed between temp-write and
    rename).  A temp file whose embedded pid is still alive belongs to
    an in-flight write and is *not* an orphan — unless ``force=True``,
    which a recoverer uses when it knows the crash happened in its own
    process (in-process chaos simulation)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    out: List[Path] = []
    # Match names before making paths: a serve state dir holds a file
    # per job, and every status request scans it.
    with os.scandir(directory) as entries:
        for entry in entries:
            m = _TMP_NAME_RE.match(entry.name)
            if m is None or not entry.is_file():
                continue
            if force or not _pid_alive(int(m.group("pid"))):
                out.append(directory / entry.name)
    return sorted(out)


def sweep_orphan_tmp(
    directory: Union[str, os.PathLike], force: bool = False
) -> List[Path]:
    """Remove orphaned atomic-write temp files from ``directory`` and
    return the paths removed.  Safe to run at any time: in-flight
    writes (live pid) are left alone unless ``force=True``."""
    removed: List[Path] = []
    for path in orphan_tmp_files(directory, force=force):
        try:
            path.unlink()
        except OSError:  # pragma: no cover - raced with another sweeper
            continue
        removed.append(path)
    return removed


def repair_torn_tail(path: Union[str, os.PathLike]) -> int:
    """Truncate a line-oriented log back to its last complete record.

    Every append to a journal/job log writes one complete
    ``\\n``-terminated line, so a file that does not end in ``\\n`` was
    torn by a crash mid-append.  A writer that blindly appends after
    such a tail would fuse its first record onto the partial line,
    corrupting *both* — so writers call this before appending.  Returns
    the number of bytes dropped (0 when the file is absent or clean).
    """
    path = Path(path)
    try:
        size = path.stat().st_size
    except OSError:
        return 0
    if size == 0:
        return 0
    with open(path, "r+b") as f:
        f.seek(-1, os.SEEK_END)
        if f.read(1) == b"\n":
            return 0
        # Walk back to the last newline (file positions are small here:
        # one torn record's worth in practice, whole file at worst).
        f.seek(0)
        data = f.read()
        keep = data.rfind(b"\n") + 1
        f.truncate(keep)
        f.flush()
        os.fsync(f.fileno())
        return size - keep


class FileLock:
    """Advisory inter-process lock (``fcntl.flock``) on a lock file.

    Usage::

        with FileLock(cache_dir / ".lock"):
            ... read-modify-write the shared directory ...

    ``shared=True`` takes a read (LOCK_SH) lock; the default is an
    exclusive (LOCK_EX) lock.  Blocks until granted, or — with
    ``acquire(timeout=...)`` — for at most that many seconds before
    raising :class:`FileLockTimeout` naming the current holder.
    Reentrant use in one process is not supported (don't nest).
    Platforms without ``fcntl`` get a no-op lock — atomic renames
    remain the last line of defence there.

    An exclusive holder stamps ``"<pid> <iso-utc-time>"`` into the lock
    file.  The stamp is *diagnostic only* — the flock, not the file
    contents, is the lock — but it turns a silent contention stall into
    an actionable "held by pid N since T" message.
    """

    #: How often a bounded acquire re-polls the lock.
    _POLL_S = 0.05

    def __init__(self, path: Union[str, os.PathLike], shared: bool = False) -> None:
        self.path = Path(path)
        self.shared = shared
        self._fd: Optional[int] = None

    def _holder(self) -> str:
        """Best-effort description of who holds the lock, from the
        holder stamp; falls back to the bare path when unreadable."""
        try:
            pid, _, since = self.path.read_text().strip().partition(" ")
            if pid:
                return f"held by pid {pid}" + (
                    f" since {since}" if since else ""
                )
        except OSError:
            pass
        return "holder unknown"

    def _try_acquire(self) -> bool:
        """One non-blocking-or-blocking flock attempt; never polls."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(self.path), os.O_RDWR | os.O_CREAT, 0o644)
        op = fcntl.LOCK_SH if self.shared else fcntl.LOCK_EX
        try:
            fcntl.flock(fd, op | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            return False
        except BaseException:  # pragma: no cover - interrupted acquire
            os.close(fd)
            raise
        self._fd = fd
        if not self.shared:
            self._stamp(fd)
        return True

    def _stamp(self, fd: int) -> None:
        """Record ``pid since-time`` for :meth:`_holder` diagnostics."""
        now = datetime.datetime.now(datetime.timezone.utc)
        stamp = f"{os.getpid()} {now.isoformat(timespec='seconds')}\n"
        try:
            os.ftruncate(fd, 0)
            os.pwrite(fd, stamp.encode(), 0)
        except OSError:  # pragma: no cover - diagnostic only
            pass

    def acquire(
        self, blocking: bool = True, timeout: Optional[float] = None
    ) -> bool:
        """Take the lock.

        ``blocking=False`` returns False immediately when another
        process (or fd) already holds it.  ``timeout=T`` waits up to
        ``T`` seconds and then raises :class:`FileLockTimeout` with a
        "held by pid N since T" diagnostic; ``timeout=None`` (the
        default) waits indefinitely.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            return True
        if timeout is not None and timeout < 0:
            raise ValueError("timeout must be >= 0 or None")
        if not blocking:
            return self._try_acquire()
        if timeout is None:
            # Unbounded wait: let the kernel block us (no poll churn).
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(str(self.path), os.O_RDWR | os.O_CREAT, 0o644)
            op = fcntl.LOCK_SH if self.shared else fcntl.LOCK_EX
            try:
                fcntl.flock(fd, op)
            except BaseException:  # pragma: no cover - interrupted
                os.close(fd)
                raise
            self._fd = fd
            if not self.shared:
                self._stamp(fd)
            return True
        deadline = time.monotonic() + timeout
        while True:
            if self._try_acquire():
                return True
            if time.monotonic() >= deadline:
                raise FileLockTimeout(
                    f"could not acquire {self.path} within "
                    f"{timeout:g}s ({self._holder()})"
                )
            time.sleep(min(self._POLL_S,
                           max(0.0, deadline - time.monotonic())))

    def release(self) -> None:
        if self._fd is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
        finally:
            os.close(self._fd)
            self._fd = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


def canonical_json(doc: Any) -> str:
    """The one JSON encoding used for digests and checksums: sorted
    keys, no whitespace — byte-stable for any equal document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
