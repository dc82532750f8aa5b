import pytest

from cogarq import link_stats

from support import table1_params


@pytest.fixture(scope="session")
def t1_params():
    return table1_params()


@pytest.fixture(scope="session")
def t1_stats(t1_params):
    """Table-I link statistics at unit-test precision (1e6 samples)."""
    return link_stats([t1_params], mc_samples=10 ** 6, seed=7)[0]
