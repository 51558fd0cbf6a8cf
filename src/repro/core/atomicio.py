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
  append — the write-ahead-log primitive :class:`RecordLog` builds
  on.
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

:class:`RecordLog` is the one durable record log: the run journal
(:mod:`repro.exec.journal`) and the serve job log
(:mod:`repro.serve.store`) are schemas over it.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import json
import os
import re
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

try:  # POSIX only; Windows falls back to lock-free atomic renames.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "atomic_write_text",
    "canonical_json",
    "conforms",
    "decode_record",
    "durable_append",
    "encode_record",
    "fsync_dir",
    "FileLock",
    "FileLockTimeout",
    "PowerCut",
    "RecordError",
    "RecordLog",
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
    try:
        fd = os.open(path, os.O_RDWR)
    except (FileNotFoundError, NotADirectoryError):
        return 0
    # Raw descriptor calls: every append runs this check, and a clean
    # tail (the common case) costs one fstat, a seek and a one-byte read.
    try:
        size = os.fstat(fd).st_size
        if size == 0:
            return 0
        os.lseek(fd, size - 1, os.SEEK_SET)
        if os.read(fd, 1) == b"\n":
            return 0
        # Walk back to the last newline (one torn record's worth in
        # practice, the whole file at worst).
        with open(path, "rb") as f:
            keep = f.read(size).rfind(b"\n") + 1
        os.ftruncate(fd, keep)
        os.fsync(fd)
        return size - keep
    finally:
        os.close(fd)


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


# ---------------------------------------------------------------------------
# the record log
# ---------------------------------------------------------------------------

_CHECK_LEN = 16


class RecordError(ValueError):
    """A log line that is not a well-framed record: undecodable JSON,
    no string ``type``, or a failed checksum."""


def _checksum(doc: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:_CHECK_LEN]


def encode_record(doc: Dict[str, Any]) -> str:
    """One log line: the record plus its ``check`` field."""
    return canonical_json({**doc, "check": _checksum(doc)}) + "\n"


def decode_record(line: str) -> Dict[str, Any]:
    """Parse and checksum-verify one log line; raises
    :class:`RecordError` on a torn or corrupted record."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordError(f"undecodable record: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("type"), str):
        raise RecordError("record is not a typed object")
    check = doc.pop("check", None)
    if check != _checksum(doc):
        raise RecordError("record checksum mismatch")
    return doc


def conforms(
    rec: Dict[str, Any],
    needs: Dict[str, Tuple[str, ...]],
    types: Dict[str, Any],
) -> bool:
    """The shape check a log schema runs before it folds a record:
    ``rec`` carries every field ``needs`` lists for its type, and each
    field of ``types`` that it carries has one of that field's types."""
    return all(f in rec for f in needs.get(rec["type"], ())) and all(
        isinstance(rec[f], t) for f, t in types.items() if f in rec
    )


def _split(data: bytes) -> Tuple[List[Dict[str, Any]], int, str]:
    """Decode the lines of ``data``: the records, the number of lines
    that fail to decode, and the unterminated remainder."""
    # errors="replace": byte rot degrades to one corrupt record, never
    # an unreadable log.  A stray \r ends a line, as in text mode.
    text = data.decode("utf-8", errors="replace")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    rest = lines.pop()
    records: List[Dict[str, Any]] = []
    corrupt = 0
    for line in lines:
        try:
            records.append(decode_record(line))
        except RecordError:
            corrupt += 1
    return records, corrupt, rest


class RecordLog:
    """An append-only file of checksummed JSON records, one per line.

    A line is the canonical JSON (:func:`canonical_json`) of a record
    object with a string ``type``, plus a ``check`` field: the first 16
    hex digits of the sha256 of the canonical JSON of the rest
    (:func:`encode_record` / :func:`decode_record`).  Recovery rules,
    shared by every log built on it:

    * every append writes one complete ``\\n``-terminated line and
      ``fsync``\\ s it; it first truncates a torn tail left by a crash
      (:func:`repair_torn_tail`), so the new record cannot fuse with
      the partial line;
    * on read, a line that fails to decode is corrupt: skipped and
      counted, and later records still load;
    * an unterminated final line that fails to decode is a torn tail,
      dropped silently; one that decodes counts like any record.

    Because writers only ever drop an incomplete final line,
    :meth:`read` is incremental: it reads only the bytes past the
    complete lines it has already returned, and starts again from
    byte 0 when the file was replaced (new inode) or shrank.  Callers
    serialise appends and reads themselves.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path)
        self._offset = 0
        self._inode: Optional[int] = None

    def append(self, doc: Dict[str, Any]) -> None:
        """Durably append one record."""
        existed = self.path.exists()
        repair_torn_tail(self.path)
        with open(self.path, "a") as f:
            durable_append(f, encode_record(doc))
        if not existed:
            fsync_dir(self.path.parent)  # the file's creation is durable

    def read(self) -> Tuple[bool, tuple, tuple]:
        """The records appended since the last read, as
        ``(reset, (records, corrupt), (tail, tail_corrupt, torn))``.

        ``records`` and ``corrupt`` (a count) cover the complete lines
        read this time; when ``reset`` is set they start again from
        byte 0 and replace what earlier reads returned.  ``tail``,
        ``tail_corrupt`` and ``torn`` cover the unterminated end of the
        file, which the next read sees again: fold them into a
        snapshot, never a cache.  Raises :class:`FileNotFoundError`
        when the log does not exist.
        """
        try:
            f = open(self.path, "rb")
        except FileNotFoundError:
            self._offset, self._inode = 0, None
            raise
        with f:
            st = os.fstat(f.fileno())
            reset = st.st_ino != self._inode or st.st_size < self._offset
            if reset:
                self._offset, self._inode = 0, st.st_ino
            f.seek(self._offset)
            data = f.read()
        complete = data.rfind(b"\n") + 1
        self._offset += complete
        records, corrupt, _ = _split(data[:complete])
        tail, tail_corrupt, last = _split(data[complete:])
        torn = False
        if last:
            try:
                tail.append(decode_record(last))
            except RecordError:
                torn = True
        return reset, (records, corrupt), (tail, tail_corrupt, torn)
