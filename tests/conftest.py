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
def adjoint():
    """C -> its adjoint, the transpose of every codeword: an (n, m, q) code
    with the same distance."""
    def transpose(C):
        mats = [[list(col) for col in zip(*M)] for M in C.basis_matrices()]
        return RankCode.from_generators(C.field, C.n, C.m, mats)
    return transpose


@pytest.fixture
def fixture_subspaces():
    """The canonical subspace fixture set (scatteredness varies by design)."""
    from ranklab import fixtures

    return {
        "pseudoregulus_2_4_1": fixtures.pseudoregulus(2, 4, 1),
        "pseudoregulus_4_4_1": fixtures.pseudoregulus(4, 4, 1),
        "subgeometry_3_3": fixtures.subgeometry_3_3(),
        "remark_counterexample": fixtures.remark_counterexample(),
        "certified_new_witness": fixtures.certified_new_witness(),
    }


@pytest.fixture(scope="session")
def scanned():
    """C rebuilt from its basis alone: its rank distribution then comes from
    the rankcodes scans, even when C carries a subspace whose point weights
    give its ranks (a C_{U,G} or a c = 0 Gabidulin code).  The oracle for
    every such distribution, distance and MRD flag."""
    return lambda C: RankCode(C.field, C.m, C.n, C.flat)


@pytest.fixture
def force_side(monkeypatch):
    """A call force_side(walk) that fixes the side of every point-weight
    choice from then on by repricing subspaces._point_sides: the walk (walk
    True) or the point scan (False) costs 0 and the other side more than any
    engine; walk None prices both sides above every engine, so a rank
    distribution takes a rankcodes scan.  Items and units stay, so the
    budget still decides what fits and what is refused."""
    from ranklab import subspaces

    sides = subspaces._point_sides

    def force(walk):
        monkeypatch.setattr(subspaces, "_point_sides", lambda *a: [
            (0 if side is walk else 1 << 62, items, unit, side)
            for _, items, unit, side in sides(*a)])

    return force


@pytest.fixture
def force_geometric(monkeypatch, force_side):
    """A call force_geometric(walk) that forces the geometric rank engine
    from then on, on the side force_side(walk) fixes: that side costs 0 and
    both rankcodes scans raise, so a code with a subspace (RankCode.attach)
    must read its ranks off the subspace's point weights."""
    from ranklab import rankcodes

    def no_scan(C):
        raise AssertionError("a rankcodes scan ran")

    def force(walk):
        force_side(walk)
        monkeypatch.setattr(rankcodes, "_walk_counts", no_scan)
        monkeypatch.setattr(rankcodes, "_subspace_counts", no_scan)

    return force
