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
    the rankcodes scans, even when C is a C_{U,G} carrying the one read off
    L_U.  The oracle for every C_{U,G} distribution, distance and MRD flag."""
    return lambda C: RankCode(C.field, C.m, C.n, C.flat)
