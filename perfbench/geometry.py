"""geometry: tabulate iota, scatteredness, hyperplane spectra, linear sets,
dualities and projective-system codes over many small towers (q in
{2,3,4,5,8,9}, r in {2,3}, n <= 4 when q >= 4), plus the rank-lab subspace
verbs on the fixture corpus.  Generic (non-packed) elimination, odd-p
arithmetic, early-exit scans, and F_4096 / F_6561 towers whose tables are
built in set-up."""

from __future__ import annotations

import random

from ranklab import constructions, fields, fixtures, fqlinalg, linsets, serialize, subspaces

from common import (Cli, check, max_hyperplane_by_dual, point_weights,
                    scattered_by_points, seeded_image, write_subspace)

PRIME_POWER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}

ALL = ("iota", "scattered", "hyperplane", "spectrum", "linset", "characterize",
       "delsarte", "odual", "projsys")
# Seeded GL(r, q^n)-images of the pseudoregulus subspace, a maximum
# h-scattered subspace: (q, r, n, h) and the tasks run on it.  characterize
# needs n >= h+3; projsys (a brute-force weight enumerator over (q^n)^r
# codewords) is run where that costs well under a second.
INSTANCES = {
    "full": [
        ((2, 2, 4, 1), ALL),
        ((2, 2, 6, 1), ALL),
        ((2, 3, 4, 2), tuple(t for t in ALL if t != "characterize")),
        ((3, 2, 4, 1), ALL),
        ((3, 3, 3, 2), ("iota", "scattered", "spectrum", "linset", "odual")),
        ((4, 2, 3, 1), ("iota", "linset", "projsys")),
        ((4, 2, 4, 1), tuple(t for t in ALL if t != "projsys")),
        ((5, 2, 4, 1), ("iota", "spectrum", "delsarte", "linset", "odual")),
        ((8, 2, 4, 1), ("iota", "hyperplane", "linset", "odual")),
        ((9, 2, 4, 1), ("scattered", "linset", "odual")),
    ],
    "tiny": [
        ((2, 2, 4, 1), ALL),
        ((3, 2, 3, 1), ("iota", "scattered", "spectrum", "linset", "odual", "projsys")),
    ],
}
# Seeded random subspaces (q, r, n) of dimensions 3 and 4, checked against the
# linear-set oracles; their scans exit early at seed-dependent points.
RANDOM = {"full": [(2, 2, 4), (3, 2, 4), (4, 2, 4), (5, 2, 4)], "tiny": [(2, 2, 4)]}
RANDOM_TASKS = ("iota", "scattered", "hyperplane")

CORPUS = {"pseudoregulus": "v1/pseudoregulus_2_4_1_q2.subspace.json",
          "pseudoregulus_4": "v1/pseudoregulus_4_4_1_q2.subspace.json",
          "subgeometry": "v1/subgeometry_3_3_2_q2.subspace.json",
          "remark": "v1/remark_counterexample_2_4_q2.subspace.json",
          "witness": "v1/certified_new_witness_3_6_1_q2.subspace.json",
          "image_q3": "image_q3_r2_n4.subspace.json",
          "random_q4": "random_q4_r2_n4_k3.subspace.json"}


def tower_for(q: int, n: int) -> fields.FieldTower:
    p, e = PRIME_POWER[q]
    return fields.make_tower(p, e, n, 1)


class Workload:
    def __init__(self, seed: int, size: str, workdir: str):
        rng = random.Random(seed)
        self.subjects = []       # (label, tower, r, basis_mid, h, maximum, tasks)
        for (q, r, n, h), tasks in INSTANCES[size]:
            tower = tower_for(q, n)
            U = seeded_image(constructions.pseudoregulus_subspace(tower, r, n, h), rng)
            self.subjects.append((f"q{q}_r{r}_n{n}_h{h}", tower, r, U.basis_mid, h, True, tasks))
        for q, r, n in RANDOM[size]:
            tower = tower_for(q, n)
            for k in (3, 4):
                U = subspaces.random_subspace(tower, r, k, rng)
                self.subjects.append((f"random_q{q}_r{r}_n{n}_k{k}", tower, r, U.basis_mid, 1,
                                      False, RANDOM_TASKS))
        self.cli = Cli(workdir)
        fixtures.materialize(workdir)
        write_subspace(self.cli.path(CORPUS["image_q3"]),
                       seeded_image(fixtures.pseudoregulus(2, 4, 1, q=3), rng))
        write_subspace(self.cli.path(CORPUS["random_q4"]),
                       subspaces.random_subspace(tower_for(4, 4), 2, 3, rng))
        self.inputs = {
            "subspaces": [{"label": s[0], "q": s[1].q, "r": s[2], "n": s[1].n, "k": len(s[3]),
                           "h": s[4], "tasks": list(s[6])} for s in self.subjects],
            "corpus": sorted(CORPUS.values()),
        }

    def tasks(self):
        out = []
        for label, tower, r, basis, h, maximum, names in self.subjects:
            for name in names:
                out.append((f"{name}_{label}",
                            lambda f=getattr(self, name), s=(tower, r, basis, h, maximum): f(*s)))
        out += [("cli_scattered_check", self.cli_scattered_check),
                ("cli_dualize", self.cli_dualize),
                ("cli_hyperplane_spectrum", self.cli_spectrum),
                ("cli_linset_points", self.cli_linset_points),
                ("cli_qsystem_code", self.cli_qsystem),
                ("cli_projsys_code", self.cli_projsys)]
        return out

    # -- library tasks: each builds its subspace afresh ------------------------------------

    def iota(self, tower, r, basis, h, maximum) -> None:
        U = subspaces.FqSubspace.from_mid_vectors(tower, r, basis)
        it = subspaces.iota(U)
        check(it == max(point_weights(U).values(), default=0), "iota != max point weight")

    def scattered(self, tower, r, basis, h, maximum) -> None:
        U = subspaces.FqSubspace.from_mid_vectors(tower, r, basis)
        sc = subspaces.is_h_scattered(U, h)
        if h == 1:
            check(sc == scattered_by_points(U, point_weights(U)),
                  "is_h_scattered disagrees with the linear set")
        check(sc or not maximum, "pseudoregulus image is not h-scattered")

    def hyperplane(self, tower, r, basis, h, maximum) -> None:
        U = subspaces.FqSubspace.from_mid_vectors(tower, r, basis)
        check(subspaces.max_hyperplane_weight(U) == max_hyperplane_by_dual(U),
              "max hyperplane weight != dual point weight + k - n")

    def spectrum(self, tower, r, basis, h, maximum) -> None:
        U = subspaces.FqSubspace.from_mid_vectors(tower, r, basis)
        spec = linsets.hyperplane_spectrum(U, h)
        check(spec == ti_spectrum(r, tower.n, h, tower.q), "hyperplane spectrum != t_i formula")
        check(sum(spec.values()) == fqlinalg.theta(r - 1, tower.q**tower.n),
              "hyperplane count != theta_{r-1}(q^n)")

    def linset(self, tower, r, basis, h, maximum) -> None:
        U = subspaces.FqSubspace.from_mid_vectors(tower, r, basis)
        pts = point_weights(U)
        check(max(pts.values()) <= h, "a point of an h-scattered linear set has weight > h")
        if h == 1:
            check(len(pts) == (tower.q**U.k - 1) // (tower.q - 1), "|L_U| != (q^k-1)/(q-1)")

    def characterize(self, tower, r, basis, h, maximum) -> None:
        U = subspaces.FqSubspace.from_mid_vectors(tower, r, basis)
        c = subspaces.characterize_max_h_scattered(U, h)
        check(c.via_definition and c.via_hyperplanes and c.via_dual_points,
              f"characterization of a maximum h-scattered subspace: {c}")

    def delsarte(self, tower, r, basis, h, maximum) -> None:
        U = subspaces.FqSubspace.from_mid_vectors(tower, r, basis)
        data = subspaces.delsarte_dual(U)
        check((data.dual.k, data.dual.r) == (U.k, U.k - r), "Delsarte dual has the wrong shape")
        check(subspaces.delsarte_double_dual(data) == U, "Delsarte double dual != U")

    def odual(self, tower, r, basis, h, maximum) -> None:
        U = subspaces.FqSubspace.from_mid_vectors(tower, r, basis)
        D = subspaces.ordinary_dual(U)
        check(D.k == r * tower.n - U.k, "ordinary dual has the wrong dimension")
        check(subspaces.ordinary_dual(D) == U, "ordinary dual is not an involution")

    def projsys(self, tower, r, basis, h, maximum) -> None:
        U = subspaces.FqSubspace.from_mid_vectors(tower, r, basis)
        L = linsets.linear_set(U)
        C = linsets.projective_system_code(L)
        enum = linsets.weight_enumerator(C, "projective")
        check(enum == expected_weights(r, tower.n, h, tower.q), "weight enumerator != closed form")
        check(C.N == len(L.points) and C.d == min(enum), "projective-system code has wrong N or d")

    # -- rank-lab subspace verbs on the corpus ------------------------------------------------

    def _load(self, key: str):
        path = self.cli.path(CORPUS[key])
        return path, serialize.subspace_from_json(serialize.load_file(path))

    def cli_scattered_check(self) -> None:
        for key in ("pseudoregulus", "remark", "witness", "random_q4"):
            path, U = self._load(key)
            res = self.cli(["scattered-check", "--subspace", path, "--h", "1"])
            pts = point_weights(U)
            check(res["scattered"] == scattered_by_points(U, pts)
                  and res["iota"] == max(pts.values(), default=0), f"scattered-check {key}: {res}")

    def cli_dualize(self) -> None:
        path, U = self._load("witness")
        res = self.cli(["dualize", "--subspace", path, "--ordinary"], "subspace")
        check(res["involution_ok"] is True and res["k"] == 3 * 6 - U.k,
              f"dualize --ordinary: {res}")
        path, U = self._load("pseudoregulus")
        res = self.cli(["dualize", "--subspace", path, "--delsarte"], "subspace")
        check(res["double_dual_equals_input"] is True and (res["k"], res["ambient_r"]) == (4, 2),
              f"dualize --delsarte: {res}")

    def cli_spectrum(self) -> None:
        for key in ("pseudoregulus_4", "image_q3"):
            path, U = self._load(key)
            res = self.cli(["hyperplane-spectrum", "--subspace", path])
            want = ti_spectrum(U.r, U.tower.n, res["h"], U.tower.q)
            check(res["matches_formula"] is True and res["total"] == res["theta_r_minus_1"]
                  and {int(i): c for i, c in res["spectrum"].items()} == want,
                  f"hyperplane-spectrum {key}: {res}")

    def cli_linset_points(self) -> None:
        for key in ("subgeometry", "witness"):
            path, U = self._load(key)
            res = self.cli(["linset-points", "--subspace", path])
            pts = point_weights(U)
            hist: dict[str, int] = {}
            for w in pts.values():
                hist[str(w)] = hist.get(str(w), 0) + 1
            check(res["size"] == len(pts) and res["weights"] == hist, f"linset-points {key}")

    def cli_qsystem(self) -> None:
        path, _ = self._load("pseudoregulus")
        res = self.cli(["qsystem-code", "--subspace", path], "hammingCode")
        check((res["N"], res["k"], res["d"]) == (4, 2, 3), f"qsystem-code: {res}")

    def cli_projsys(self) -> None:
        for key in ("pseudoregulus", "image_q3"):
            path, U = self._load(key)
            res = self.cli(["projsys-code", "--subspace", path, "--enumerator"], "hammingCode")
            want = expected_weights(U.r, U.tower.n, 1, U.tower.q)
            check({int(w): c for w, c in res["enumerator"].items()} == want
                  and res["N"] == len(point_weights(U)), f"projsys-code {key}: {res}")


def ti_spectrum(r: int, n: int, h: int, q: int) -> dict[int, int]:
    ti = {i: linsets.ti_formula(r, n, h, q, i) for i in range(h + 1)}
    return {i: t for i, t in ti.items() if t}


def expected_weights(r: int, n: int, h: int, q: int) -> dict[int, int]:
    return {w: c for w, c in linsets.expected_weights(r, n, h, q).items() if c}
