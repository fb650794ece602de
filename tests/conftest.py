from __future__ import annotations

import glob
import os
import threading

import pytest

from beds import engine, verify


def _live_children() -> set[int]:
    """The pids of this process's children, zombies included, read without reaping any (none off Linux)."""

    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path, encoding="ascii") as handle:
            pids.update(map(int, handle.read().split()))
    return pids


@pytest.fixture(autouse=True)
def _no_thread_left_running():
    """Fail a test that leaves running a thread or a child process that was not running when it started.

    A child that has exited but was not reaped is left behind too.
    """

    threads, children = set(threading.enumerate()), _live_children()
    yield
    left = [thread for thread in threading.enumerate() if thread not in threads]
    left += [f"child process {pid}" for pid in sorted(_live_children() - children)]
    if left:
        pytest.fail(f"threads or processes left running: {left}")


@pytest.fixture
def live_children():
    """A function returning the pids of this process's children, zombies included."""

    return _live_children


@pytest.fixture
def started_children(monkeypatch):
    """The pids of the child processes forked while the test runs."""

    started = []

    def recording():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    fork = os.fork
    monkeypatch.setattr(os, "fork", recording)
    return started


@pytest.fixture(scope="session")
def _verify_run() -> tuple[verify.VerifyReport, dict[str, int]]:
    """One full self-verification run, with the runs and events that ``engine.counts`` counted in it."""

    engine.counts.clear()
    report = verify.run_all(verify.DEFAULT_SEED_BASE)
    return report, {"runs": engine.counts["runs"], "events": engine.counts["events"]}


@pytest.fixture(scope="session")
def verify_report(_verify_run) -> verify.VerifyReport:
    """One full self-verification run shared by the acceptance tests."""

    return _verify_run[0]


@pytest.fixture(scope="session")
def verify_run_counts(_verify_run) -> dict[str, int]:
    """The ``runs`` and ``events`` of the ``verify_report`` run."""

    return _verify_run[1]
