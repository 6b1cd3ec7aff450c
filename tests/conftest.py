import gc

import pytest


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that leaves the cyclic garbage collector disabled, so no
    later test runs with it off unnoticed (``cli.main`` switches it off for
    the length of a command)."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
