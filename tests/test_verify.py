"""The parallel suite runner: ``run_parallel`` returns what ``run_all`` does.

Every call of the runner here also checks that it leaves no worker
unreaped and no file descriptor open.  Run these tests with
``python -X dev -W error::ResourceWarning -m pytest tests/test_verify.py``
to have an unclosed file object fail them too.
"""

import contextlib
import errno
import functools
import marshal
import math
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from cvol import verify
from cvol.cli import main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
FIXTURES = pathlib.Path(__file__).parent / "fixtures"

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
    reason="the runner forks only where os.fork and os.sched_getaffinity exist")


def _open_fds() -> set[str]:
    with contextlib.suppress(FileNotFoundError):
        return set(os.listdir("/proc/self/fd"))
    return set()


def _key(results) -> str:
    """Every field of every result but its run time; repr makes NaN equal
    to NaN."""
    return repr([(r.name, r.count, r.passed, r.max_residual, r.failures)
                 for r in results])


def parallel(count: int, seed: int, tol: float = 1e-9):
    """``run_parallel``, checked to leave no child and no descriptor."""
    before = _open_fds()
    try:
        return verify.run_parallel(count, seed, tol)
    finally:
        assert _open_fds() == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the test if it runs past ``seconds``; the
    runner then kills and reaps its workers on the way out."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def fork_calls(monkeypatch) -> list[int]:
    """Count the calls of ``os.fork``; each still forks."""
    calls, fork = [], os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def patch_suites(monkeypatch, wrap) -> None:
    monkeypatch.setattr(verify, "ALL_SUITES",
                        tuple(wrap(suite) for suite in verify.ALL_SUITES))


def log_claims(monkeypatch, log: pathlib.Path) -> None:
    """Have each suite note its name in the append-only ``log`` when it
    starts, in whichever process runs it."""
    def logged(suite):
        @functools.wraps(suite)
        def run(count, rng, tol):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{suite.__name__}\n".encode())
            finally:
                os.close(fd)
            return suite(count, rng, tol)
        return run

    patch_suites(monkeypatch, logged)


class TestSameAsSerial:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("count", [0, 1, 50])
    def test_cli_bytes_match_serial_report(self, seed, count, monkeypatch,
                                           capsys):
        self._compare(["--format", "json", "--seed", str(seed), "verify",
                       "--count", str(count)], monkeypatch, capsys)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_reported_failures_match(self, fmt, seed, monkeypatch, capsys):
        code = self._compare(["--format", fmt, "--tolerance", "1e-15",
                              "--seed", str(seed), "verify", "--count", "50"],
                             monkeypatch, capsys)
        assert code == 1

    @staticmethod
    def _compare(args, monkeypatch, capsys) -> int:
        """The command in a fresh interpreter against ``run_all`` in
        process: stdout, stderr and exit code."""
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-m", "cvol.cli", *args],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
        monkeypatch.setattr(verify, "run_parallel", verify.run_all)
        code = main(args)
        captured = capsys.readouterr()
        assert (result.stdout, result.stderr, result.returncode) == (
            captured.out, captured.err, code)
        return code

    @pytest.mark.parametrize("n", [2, 4])
    def test_forks_one_worker_per_extra_cpu(self, n, monkeypatch):
        cpus(monkeypatch, n)
        calls = fork_calls(monkeypatch)
        assert _key(parallel(20, 5)) == _key(verify.run_all(20, 5))
        assert len(calls) == n - 1

    def test_stress_more_workers_than_cores(self, monkeypatch, tmp_path):
        # 7 workers and this process share the host's cores; each suite
        # notes its name in one append-only log when it starts, so a suite
        # claimed twice, or lost and run again, shows as a repeated name
        log = tmp_path / "claims"
        names = sorted(suite.__name__ for suite in verify.ALL_SUITES)
        expected = {(count, seed): _key(verify.run_all(count, seed))
                    for count in (0, 1, 7) for seed in range(4)}
        log_claims(monkeypatch, log)
        cpus(monkeypatch, 8)
        calls = fork_calls(monkeypatch)
        rounds, stop = 0, time.monotonic() + 5.0
        with deadline(120):
            while rounds < 12 or (rounds < 60 and time.monotonic() < stop):
                count, seed = list(expected)[rounds % len(expected)]
                log.write_bytes(b"")
                assert _key(parallel(count, seed)) == expected[count, seed]
                assert sorted(log.read_text().split()) == names
                rounds += 1
        assert len(calls) == 7 * rounds

    @pytest.mark.parametrize("n", [None, 2, 8])
    def test_every_result_carries_its_run_time(self, n, monkeypatch):
        # None runs run_all; a worker's times come back in its result, so
        # none may be left at the constructor's 0.0
        if n is None:
            results = verify.run_all(10, 3)
        else:
            cpus(monkeypatch, n)
            results = parallel(10, 3)
        assert all(0.0 < r.seconds < math.inf for r in results)


class TestClaimOrder:
    def test_ranking_names_each_suite_once(self):
        assert sorted(verify._COST_RANKING) == sorted(
            suite.__name__ for suite in verify.ALL_SUITES)

    def test_one_process_claims_costliest_first(self, monkeypatch, tmp_path):
        log = tmp_path / "claims"
        expected = _key(verify.run_all(3, 0))
        log_claims(monkeypatch, log)
        cpus(monkeypatch, 1)
        assert _key(parallel(3, 0)) == expected
        assert log.read_text().split() == list(verify._COST_RANKING)

    def test_unranked_suites_follow_in_index_order(self, monkeypatch,
                                                    tmp_path):
        # rename the first two and the last suite: the others keep their
        # ranked order, and the renamed ones come after them, first to last
        renamed = {0: "first", 1: "second", 13: "last"}
        suites = list(verify.ALL_SUITES)
        for index, name in renamed.items():
            suites[index] = functools.partial(suites[index])
            suites[index].__name__ = name
        monkeypatch.setattr(verify, "ALL_SUITES", tuple(suites))
        log = tmp_path / "claims"
        log_claims(monkeypatch, log)
        cpus(monkeypatch, 1)
        parallel(3, 0)
        kept = {suite.__name__ for suite in suites}
        assert log.read_text().split() == [
            name for name in verify._COST_RANKING if name in kept
        ] + ["first", "second", "last"]


class TestFailures:
    @pytest.mark.parametrize("index", [0, 6, 13])
    def test_raising_suite_raises_from_the_runner(self, index, monkeypatch):
        def boom(count, rng, tol):
            raise RuntimeError("suite failed")

        boom.__name__ = verify.ALL_SUITES[index].__name__
        suites = list(verify.ALL_SUITES)
        suites[index] = boom
        monkeypatch.setattr(verify, "ALL_SUITES", tuple(suites))
        cpus(monkeypatch, 8)
        for run in (verify.run_all, parallel):
            with pytest.raises(RuntimeError, match="suite failed") as info:
                run(3, 1)
            assert info.traceback[-1].name == "boom"

    def test_error_in_the_parent_kills_the_workers(self, monkeypatch):
        # a worker's suite would run for a minute: the runner must kill
        # it, not wait for it, when a suite of its own raises
        parent = os.getpid()

        def stall(count, rng, tol):
            if os.getpid() != parent:
                time.sleep(60)
            raise RuntimeError("suite failed")

        monkeypatch.setattr(verify, "ALL_SUITES",
                            (stall,) * len(verify.ALL_SUITES))
        cpus(monkeypatch, 2)
        start = time.monotonic()
        with deadline(20), pytest.raises(RuntimeError, match="suite failed"):
            parallel(1, 0)
        assert time.monotonic() - start < 10

    def test_dead_workers_leave_their_suites_to_the_parent(self, monkeypatch):
        parent = os.getpid()

        def dies_in_worker(suite):
            @functools.wraps(suite)
            def run(count, rng, tol):
                if os.getpid() != parent:
                    os._exit(3)
                return suite(count, rng, tol)
            return run

        expected = _key(verify.run_all(10, 2))
        patch_suites(monkeypatch, dies_in_worker)
        cpus(monkeypatch, 4)
        assert _key(parallel(10, 2)) == expected

    def test_incomplete_result_reruns_in_process(self, monkeypatch):
        def truncated(obj, out):
            out.write(marshal.dumps(obj)[:-5])

        monkeypatch.setattr(marshal, "dump", truncated)
        cpus(monkeypatch, 4)
        assert _key(parallel(10, 4)) == _key(verify.run_all(10, 4))


class TestSerialFallback:
    def test_fork_error(self, monkeypatch):
        def refuse():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refuse)
        cpus(monkeypatch, 8)
        assert _key(parallel(10, 6)) == _key(verify.run_all(10, 6))

    def test_no_fork_with_a_live_thread(self, monkeypatch):
        cpus(monkeypatch, 8)
        calls = fork_calls(monkeypatch)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            assert _key(parallel(10, 7)) == _key(verify.run_all(10, 7))
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert calls == []

    def test_one_cpu(self, monkeypatch):
        cpus(monkeypatch, 1)
        calls = fork_calls(monkeypatch)
        assert _key(parallel(10, 8)) == _key(verify.run_all(10, 8))
        assert calls == []

    def test_no_fork_on_the_platform(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        cpus(monkeypatch, 8)
        assert _key(parallel(10, 9)) == _key(verify.run_all(10, 9))


@pytest.mark.parametrize("command", ["cvol", "homology"])
def test_other_commands_load_no_runner_modules(command):
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, cvol.cli; "
         "code = cvol.cli.main(sys.argv[1:]); "
         "print('pickle' in sys.modules, file=sys.stderr); "
         "sys.exit(code)",
         "--format", "json", command, str(FIXTURES / "fig8.json")],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        FIXTURES / "golden" / f"{command}-fig8.json").read_text()
    assert result.stderr.strip() == "False"
