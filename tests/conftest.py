"""Every test runs in its own shared_draws() scope, as the table and the
order run theirs: trials share their draws within the test and keep none
after it."""

import pytest

from ril.invariance import shared_draws


@pytest.fixture(autouse=True)
def _shared_draws():
    with shared_draws():
        yield
