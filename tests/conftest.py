from __future__ import annotations

import threading

import pytest

from beds import engine, verify


@pytest.fixture(autouse=True)
def _no_thread_left_running():
    """Fail a test that leaves running a thread that was not running when it started."""

    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    if left:
        pytest.fail(f"threads left running: {left}")


@pytest.fixture(scope="session")
def _verify_run() -> tuple[verify.VerifyReport, dict[str, int]]:
    """One full self-verification run, with the runs and events of every ``run`` call it made."""

    counts = {"runs": 0, "events": 0}

    def counted(*args, **kwargs):
        trace = run(*args, **kwargs)
        counts["runs"] += 1
        counts["events"] += trace.summary.observation_count
        return trace

    run = engine.run
    with pytest.MonkeyPatch.context() as patch:
        for module in (engine, verify):
            patch.setattr(module, "run", counted)
        report = verify.run_all(verify.DEFAULT_SEED_BASE)
    return report, counts


@pytest.fixture(scope="session")
def verify_report(_verify_run) -> verify.VerifyReport:
    """One full self-verification run shared by the acceptance tests."""

    return _verify_run[0]


@pytest.fixture(scope="session")
def verify_run_counts(_verify_run) -> dict[str, int]:
    """The ``runs`` and ``events`` of the ``verify_report`` run."""

    return _verify_run[1]
