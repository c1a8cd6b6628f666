import hypothesis
import pytest

from ranklab.fields import make_tower
from ranklab.constructions import pseudoregulus_subspace
from ranklab.rankcodes import RankCode

hypothesis.settings.register_profile(
    "ranklab", deadline=None, max_examples=60,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("ranklab")


@pytest.fixture(scope="session")
def t2_4():
    """F_2 ⊂ F_16 (the workhorse tower)."""
    return make_tower(2, 1, 4, 1)


@pytest.fixture(scope="session")
def t2_3():
    return make_tower(2, 1, 3, 1)


@pytest.fixture(scope="session")
def t3_4():
    """F_3 ⊂ F_81."""
    return make_tower(3, 1, 4, 1)


@pytest.fixture(scope="session")
def t2_32():
    """F_2 ⊂ F_8 ⊂ F_64."""
    return make_tower(2, 1, 3, 2)


@pytest.fixture(scope="session")
def pseudoreg(t2_4):
    """{(x, x^2) : x in F_16}: maximum scattered in F_16^2."""
    return pseudoregulus_subspace(t2_4, 2, 4, 1)


@pytest.fixture(scope="session")
def scanned():
    """C rebuilt from its basis alone: its rank distribution then comes from
    the rankcodes scans, even when C carries a subspace whose point weights
    give its ranks (a C_{U,G} or a c = 0 Gabidulin code).  The oracle for
    every such distribution, distance and MRD flag."""
    return lambda C: RankCode(C.field, C.m, C.n, C.flat)


@pytest.fixture
def force_geometric(monkeypatch):
    """A call that forces the geometric rank engine from then on: its price
    is 0 and both rankcodes scans raise, so a code with a subspace
    (RankCode.attach) must read its ranks off the subspace's point weights."""
    from ranklab import rankcodes

    def no_scan(C):
        raise AssertionError("a rankcodes scan ran")

    def force():
        monkeypatch.setattr(rankcodes, "_plan", lambda tower, r, dim, budget: (True, 0))
        monkeypatch.setattr(rankcodes, "_walk_counts", no_scan)
        monkeypatch.setattr(rankcodes, "_subspace_counts", no_scan)

    return force
