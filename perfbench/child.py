"""Child processes of the benchmark: one ``cvol`` (or probe) process at a
time, run from the checkout root with ``src`` on ``PYTHONPATH``."""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

OP_TIMEOUT_S = 30.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Outcome:
    wall_s: float
    returncode: int
    timed_out: bool
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(cmd: list[str], timeout: float = OP_TIMEOUT_S) -> Outcome:
    """Run one child to completion, killing it after ``timeout`` seconds,
    and read its own peak RSS from ``wait4``.

    The child is first waited for with ``WNOWAIT``, so it stays unreaped
    (and its pid cannot be reused) until the kill timer has stopped.
    """
    WORKDIR.mkdir(parents=True, exist_ok=True)
    with open(WORKDIR / "op.out", "w+b") as out, \
            open(WORKDIR / "op.err", "w+b") as err:
        fired = threading.Event()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)

        def expire() -> None:
            fired.set()
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    return Outcome(wall, proc.returncode, fired.is_set(),
                   usage.ru_maxrss / 1024.0, stdout, stderr)
