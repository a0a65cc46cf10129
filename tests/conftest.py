import pytest

import jetstokes as js


@pytest.fixture(scope="session")
def cfg_small():
    return js.DomainConfig(n_r=12, n_theta=3, n_z=2)


@pytest.fixture(scope="session")
def ws_small(cfg_small):
    return js.Workspace(cfg_small)


@pytest.fixture(scope="session")
def cfg_medium():
    return js.DomainConfig(n_r=24, n_theta=6, n_z=2)


@pytest.fixture(scope="session")
def ws_medium(cfg_medium):
    return js.Workspace(cfg_medium)


@pytest.fixture(scope="session")
def ws_wide():
    return js.Workspace(js.DomainConfig(n_r=24, n_theta=6, n_z=4))
