"""search: the section-6 hunt for a 9-dimensional scattered subspace of
F_64^3 (r=3, n=6, h=1, k=9), as in scripts/search_demo.py, with a fixed
evaluation budget.  Packed GF(2) elimination and line scaling; no early exit;
never reaches rankcodes or linsets unless a witness turns up."""

from __future__ import annotations

from ranklab import constructions, fields, subspaces

from common import check, point_weights, scattered_by_points

R, N, H, K = 3, 6, 1, 9
MAX_EVALS = {"full": 10, "tiny": 2}


class Workload:
    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.max_evals = MAX_EVALS[size]
        self.tower = fields.make_tower(2, 1, N, 1)
        self.inputs = {"field": "F_2 < F_64", "r": R, "n": N, "h": H, "k": K,
                       "max_evals": self.max_evals, "search_seed": seed}

    def tasks(self):
        return [("random_scattered_search", self.search)]

    def search(self) -> int:
        res = constructions.random_scattered_search(
            self.tower, R, H, K, seed=self.seed, max_evals=self.max_evals)
        if res.found:
            U = res.subspace
            check(U.k == K, "witness has the wrong dimension")
            check(subspaces.is_h_scattered(U, H), "witness is not 1-scattered")
            check(scattered_by_points(U, point_weights(U)),
                  "witness fails the linear-set scatteredness check")
        else:
            check(res.evaluations == self.max_evals,
                  f"{res.evaluations} evaluations, expected {self.max_evals}")
        return res.evaluations
