"""certify: certify candidate MRD codes.  The frozen (9,6,2;5) witness
pipeline, Gabidulin and twisted Gabidulin rank distributions, MacWilliams on
seeded random codes, the MRD -> subspace converse, and the rank-lab code verbs
on the fixture corpus.  Almost all time is the rankcodes codeword odometer;
subspaces are reached only through c_ug's iota."""

from __future__ import annotations

import random

from ranklab import constructions, fields, fixtures, rankcodes, serialize, subspaces

from common import Cli, check, seeded_image

# Sizes: (q, N, k) of the Gabidulin and twisted Gabidulin codes, (q, m, n, K)
# of the seeded random codes, and the (q, n) towers of the converse.
PARAMS = {
    "full": {"gabidulin": (2, 6, 3), "twisted": (3, 5, 2),
             "random": [(2, 5, 6, 15), (3, 4, 4, 8)], "converse": [(2, 4), (3, 4)]},
    "tiny": {"gabidulin": (2, 4, 2), "twisted": (3, 4, 2),
             "random": [(2, 4, 4, 8), (3, 3, 3, 4)], "converse": [(2, 4), (3, 3)]},
}

# Corpus codes: (file stem, minimum distance); every one of them is MRD.
CORPUS_CODES = [("gabidulin_4_2_1_q2", 3), ("gabidulin_4_2_1_q2_dual", 3),
                ("twisted_gabidulin_4_2_1_q3", 3), ("cug_pseudoregulus_2_4_1_q2", 3),
                ("gabidulin_restriction_6_3_1_q2", 2)]


def random_code_gens(F, m: int, n: int, K: int, rng) -> list:
    while True:
        gens = [[[rng.randrange(F.order) for _ in range(n)] for _ in range(m)]
                for _ in range(K)]
        if rankcodes.RankCode.from_generators(F, m, n, gens).dim == K:
            return gens


def mrd_distribution(C: rankcodes.RankCode, d: int) -> tuple:
    return rankcodes.mrd_weight_distribution(C.m, C.n, C.q, d).A


class Workload:
    def __init__(self, seed: int, size: str, workdir: str):
        rng = random.Random(seed)
        P = PARAMS[size]
        q, N, k = P["gabidulin"]
        self.gab = (fields.make_tower(q, 1, N, 1), N, k)
        q, N, k = P["twisted"]
        tw = fields.make_tower(q, 1, N, 1)
        self.twisted = (tw, N, k, constructions.find_nonsquare(tw, "mid"))
        self.witness = fixtures.certified_new_witness()
        self.random = []
        for q, m, n, K in P["random"]:
            F = fields.make_tower(q, 1, 1, 1).base
            self.random.append((F, m, n, K, random_code_gens(F, m, n, K, rng)))
        self.converse = []
        for q, n in P["converse"]:
            tower = fields.make_tower(q, 1, n, 1)
            U = seeded_image(constructions.pseudoregulus_subspace(tower, 2, n, 1), rng)
            self.converse.append((tower, U.basis_mid))
        self.cli = Cli(workdir)
        fixtures.materialize(workdir)
        # a code containing a rank-1 word: provably not equivalent to an MRD code
        F2 = fields.make_tower(2, 1, 1, 1).base
        gens = random_code_gens(F2, 4, 4, 7, rng)
        gens.append([[1, 0, 0, 0]] + [[0] * 4] * 3)
        serialize.dump_file(self.cli.path("rank1_4x4_q2.code.json"), serialize.rankcode_to_json(
            rankcodes.RankCode.from_generators(F2, 4, 4, gens)))
        self.inputs = {
            "witness": "(9,6,2;5) C_{U,G}, 2^18 words",
            "gabidulin": dict(zip("qNk", P["gabidulin"])),
            "twisted_gabidulin": dict(zip("qNk", P["twisted"])),
            "random_codes": [dict(zip(("q", "m", "n", "K"), c)) for c in P["random"]],
            "converse": [dict(zip("qn", c)) for c in P["converse"]],
            "corpus_codes": [c for c, _ in CORPUS_CODES],
        }

    def tasks(self):
        out = [("witness_pipeline", self.witness_pipeline),
               ("gabidulin", self.gabidulin), ("twisted_gabidulin", self.twisted_gabidulin)]
        out += [(f"macwilliams_q{F.order}_{m}x{n}_K{K}",
                 lambda c=(F, m, n, K, g): self.macwilliams(*c))
                for F, m, n, K, g in self.random]
        out += [(f"mrd_to_subspace_q{t.q}_n{t.n}", lambda c=(t, b): self.converse_task(*c))
                for t, b in self.converse]
        for stem, d in CORPUS_CODES:
            out.append((f"cli_mrd_check_{stem}", lambda s=stem, d=d: self.cli_mrd_check(s, d)))
            out.append((f"cli_rank_dist_{stem}", lambda s=stem, d=d: self.cli_rank_dist(s, d)))
        out += [("cli_idealiser", self.cli_idealiser), ("cli_dualize_code", self.cli_dualize_code),
                ("cli_extract_subspace", self.cli_extract),
                ("cli_certify_inequivalent", self.cli_certify)]
        return out

    # -- library tasks -------------------------------------------------------------

    def witness_pipeline(self) -> None:
        W = subspaces.FqSubspace.from_mid_vectors(self.witness.tower, 3, self.witness.basis_mid)
        D = subspaces.ordinary_dual(W)
        check(D.k == 9, "ordinary dual of the witness is not 9-dimensional")
        cug = constructions.c_ug(D)
        C = cug.code
        check((C.m, C.n, C.dim, cug.iota) == (9, 6, 18, 1), "C_{U,G} has the wrong parameters")
        A = C.rank_distribution().A
        check(sum(A) == 2**18, "rank distribution does not sum to q^K")
        check(A == mrd_distribution(C, 5), "witness rank distribution != MRD closed form")
        check(A == constructions.cug_mrd_weight_distribution(3, 6, 1, 2),
              "witness rank distribution != C_{U,G} closed form")
        check(C.is_mrd(), "witness code is not MRD")
        R = rankcodes.right_idealiser(C)
        check(R.order == 64 and R.is_field, "right idealiser is not F_64")
        verdict = rankcodes.gabidulin_family_exclusion(C, 3, 6, 1)
        check(verdict is rankcodes.GabidulinExclusion.CERTIFIED_NEW, "exclusion did not certify")

    def gabidulin(self) -> None:
        tower, N, k = self.gab
        C = constructions.gabidulin(tower, N, k, 1)
        A = C.rank_distribution().A
        check(sum(A) == C.q**C.dim, "rank distribution does not sum to q^K")
        check(A == mrd_distribution(C, N - k + 1), "Gabidulin rank distribution != closed form")

    def twisted_gabidulin(self) -> None:
        tower, N, k, eta = self.twisted
        C = constructions.twisted_gabidulin(tower, N, k, 1, eta, 0).code
        A = C.rank_distribution().A
        check(sum(A) == C.q**C.dim, "rank distribution does not sum to q^K")
        check(A == mrd_distribution(C, N - k + 1),
              "twisted Gabidulin rank distribution != closed form")

    def macwilliams(self, F, m, n, K, gens) -> None:
        C = rankcodes.RankCode.from_generators(F, m, n, gens)
        check(rankcodes.macwilliams_check(C), "MacWilliams identities fail")
        check(sum(C.rank_distribution().A) == F.order**K, "rank distribution does not sum to q^K")

    def converse_task(self, tower, basis) -> None:
        U = subspaces.FqSubspace.from_mid_vectors(tower, 2, basis)
        C = constructions.c_ug(U).code
        ext = constructions.mrd_to_subspace(C, tower)
        check(ext.reconstructed == ext.conjugated_code, "converse reconstruction differs")
        check(ext.subspace.k == U.k and ext.iota == 1, "extracted subspace has wrong (k, iota)")

    # -- rank-lab code verbs on the corpus ----------------------------------------------

    def _code(self, stem: str) -> str:
        return self.cli.path(f"v1/{stem}.code.json")

    def cli_mrd_check(self, stem: str, d: int) -> None:
        res = self.cli(["mrd-check", "--code", self._code(stem)])
        check(res["mrd"] is True and res["d"] == d, f"mrd-check {stem}: {res}")

    def cli_rank_dist(self, stem: str, d: int) -> None:
        res = self.cli(["rank-dist", "--code", self._code(stem)])
        C = serialize.rankcode_from_json(serialize.load_file(self._code(stem)))
        check(sum(res["A"]) == C.q**res["K"], f"rank-dist {stem} does not sum to q^K")
        check(tuple(res["A"]) == mrd_distribution(C, d), f"rank-dist {stem} != MRD closed form")

    def cli_idealiser(self) -> None:
        res = self.cli(["idealiser", "--code", self._code("cug_pseudoregulus_2_4_1_q2"), "--right"])
        check(res["order"] == 16 and res["is_field"], f"right idealiser: {res}")
        res = self.cli(["idealiser", "--code", self._code("gabidulin_4_2_1_q2"), "--left"])
        check(res["order"] == 16 and res["is_field"], f"left idealiser: {res}")

    def cli_dualize_code(self) -> None:
        res = self.cli(["dualize-code", "--code", self._code("gabidulin_4_2_1_q2")], "rankCode")
        want = serialize.rankcode_from_json(
            serialize.load_file(self._code("gabidulin_4_2_1_q2_dual")))
        check(serialize.rankcode_from_json(res["artifact"]) == want, "dualize-code != corpus dual")

    def cli_extract(self) -> None:
        res = self.cli(["extract-subspace", "--code", self._code("cug_pseudoregulus_2_4_1_q2")],
                       "subspace")
        check(res["reconstruction_equal"] is True and (res["k"], res["iota"]) == (4, 1),
              f"extract-subspace: {res}")

    def cli_certify(self) -> None:
        gab = self._code("gabidulin_4_2_1_q2")
        res = self.cli(["certify-inequivalent", "--code", gab, "--code2", gab])
        check(res["status"] == "inconclusive", "a code was certified inequivalent to itself")
        res = self.cli(["certify-inequivalent", "--code", gab,
                        "--code2", self.cli.path("rank1_4x4_q2.code.json")])
        check((res["status"], res["reason"]) == ("certified-inequivalent", "rank-distribution"),
              f"rank-1 code not separated from an MRD code: {res}")
