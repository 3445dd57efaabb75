import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def _no_child_process_left():
    """Fail a test that leaves a child process running (the benchmark
    counts one left running against its run); end them first, so that the
    next test starts clean."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.kill()
        proc.join()
    assert not left, f"child processes left running: {left}"
