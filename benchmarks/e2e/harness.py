"""Process plumbing for the end-to-end benchmark.

Every operation the benchmark times is a real ``repro`` process started
from here and timed from outside: wall clock around ``Popen`` ..
``os.wait4``, CPU time and peak RSS from the rusage ``wait4`` returns
(which folds in every descendant the child reaped, such as pool workers
or serve workers).  The program sees only ``src/`` of this checkout and
none of the caller's ``REPRO_*`` settings, so its inputs are exactly the
arguments and files the benchmark generates.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent


def program_present() -> bool:
    """True when the checkout holds the program under test."""
    return (SRC / "repro" / "cli.py").is_file()


def program_env(cwd: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(cwd)  # keep the program's temp files in the checkout
    return env


@dataclass
class Child:
    """One finished child process, measured from outside."""

    args: List[str]
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr_path: Path

    def stderr_tail(self, lines: int = 5) -> str:
        try:
            text = self.stderr_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


def reap(proc: subprocess.Popen, timeout: Optional[float] = None) -> tuple:
    """``os.wait4`` a child: ``(exit code, cpu seconds, peak RSS MB)``.
    With ``timeout``, a child still running after that many seconds is
    killed first."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        flags = 0 if deadline is None else os.WNOHANG
        pid, status, usage = os.wait4(proc.pid, flags)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            deadline = None
        else:
            time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def stop(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate a child that is still running and wait until it ends."""
    if proc.returncode is not None or proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def spawn(args: Sequence[str], cwd: Path, stderr_path: Path,
          stdout=subprocess.PIPE) -> subprocess.Popen:
    """Start ``python ARGS`` on the program under test."""
    with open(stderr_path, "wb") as err:
        return subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=program_env(cwd),
            stdin=subprocess.DEVNULL, stdout=stdout, stderr=err,
        )


def run_child(args: Sequence[str], cwd: Path, name: str) -> Child:
    """Run ``python ARGS`` to completion in ``cwd`` and measure it."""
    cwd.mkdir(parents=True, exist_ok=True)
    stderr_path = cwd / f"{name}.stderr"
    t0 = time.perf_counter()
    proc = spawn(args, cwd, stderr_path)
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        code, cpu, rss = reap(proc)
    finally:
        stop(proc)
    return Child(list(args), code, time.perf_counter() - t0, cpu, rss, out,
                 stderr_path)


def repro(*args: str) -> List[str]:
    """Arguments for ``python -m repro ARGS``."""
    return ["-m", "repro", *args]
