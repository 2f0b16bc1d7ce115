from pathlib import Path

import pytest

from sitecolim import limits, standard

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def one_cat():
    return standard.one()


@pytest.fixture(scope="session")
def two_cat():
    return standard.two()


@pytest.fixture(scope="session")
def diamond():
    return standard.diamond()


@pytest.fixture(scope="session")
def diamond_limits():
    return standard.diamond_limits()


@pytest.fixture(scope="session")
def consttwo():
    return standard.const_two_diagram()


@pytest.fixture(scope="session")
def consttwo_colim(consttwo):
    from sitecolim import build_pseudocolimit
    return build_pseudocolimit(consttwo)


@pytest.fixture(scope="session")
def diamondchain():
    return standard.diamond_chain_diagram()


@pytest.fixture(scope="session")
def diamondchain_colim(diamondchain):
    from sitecolim import build_pseudocolimit
    return build_pseudocolimit(diamondchain)


@pytest.fixture
def exhaustive_calls(monkeypatch):
    """The arguments of every enumerate_cones call, the exhaustive part of
    is_limiting_cone, that check_exact or validate_assignment makes."""
    calls = []
    real = limits.enumerate_cones

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(limits, "enumerate_cones", counting)
    return calls
