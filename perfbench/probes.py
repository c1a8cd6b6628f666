"""Kernel probes run at the end of a traced run, with the wrappers removed:
field arithmetic and RowReducer.add in ns/op, and the codeword odometer of
RankCode.rank_distribution in codewords per second.  Operands are seeded and
drawn from the towers the workloads use (F_64 for search; F_81 and F_6561
for geometry; F_2 and F_3 codes for certify).  Each probe reports the median
of REPS repetitions."""

from __future__ import annotations

import random
import statistics
import time

from ranklab import fields, fqlinalg, rankcodes

REPS = 5
FIELD_OPS = 20000
REDUCERS = 1500


def _median_s(fn) -> float:
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def field_op_ns(F: fields.Field, op: str, rng) -> float:
    pairs = [(rng.randrange(1, F.order), rng.randrange(1, F.order)) for _ in range(FIELD_OPS)]
    f = getattr(F, op)

    def loop():
        for a, b in pairs:
            f(a, b)
    return _median_s(loop) / FIELD_OPS * 1e9


def row_reducer_add_ns(F: fields.Field, ncols: int, rng) -> float:
    """RowReducer.add on fresh reducers fed ncols + 2 random rows each, so
    both growing and fully reduced rows are timed."""
    per = ncols + 2
    if F.order == 2:
        groups = [[rng.getrandbits(ncols) for _ in range(per)] for _ in range(REDUCERS)]
    else:
        groups = [[tuple(rng.randrange(F.order) for _ in range(ncols)) for _ in range(per)]
                  for _ in range(REDUCERS)]

    def loop():
        for rows in groups:
            add = fqlinalg.RowReducer(F, ncols).add
            for row in rows:
                add(row)
    return _median_s(loop) / (REDUCERS * per) * 1e9


def codewords_per_s(F: fields.Field, m: int, n: int, K: int, rng) -> float:
    while True:
        gens = [[[rng.randrange(F.order) for _ in range(n)] for _ in range(m)] for _ in range(K)]
        code = rankcodes.RankCode.from_generators(F, m, n, gens)
        if code.dim == K:
            break
    # a fresh instance per repetition: RankCode caches its distribution
    t = _median_s(lambda: rankcodes.RankCode(F, m, n, code.flat).rank_distribution())
    return F.order**K / t


def run(seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    F64 = fields.make_tower(2, 1, 6, 1).mid
    F81 = fields.make_tower(3, 1, 4, 1).mid
    F6561 = fields.make_tower(3, 2, 4, 1).mid
    F2, F3 = F64.base, F81.base
    return {
        "fields.mul.ns.F64": field_op_ns(F64, "mul", rng),
        "fields.add.ns.F81": field_op_ns(F81, "add", rng),
        "fields.add.ns.F6561": field_op_ns(F6561, "add", rng),
        "fields.mul.ns.F6561": field_op_ns(F6561, "mul", rng),
        "fqlinalg.RowReducer.add.ns.q2": row_reducer_add_ns(F2, 18, rng),
        "fqlinalg.RowReducer.add.ns.q3": row_reducer_add_ns(F3, 8, rng),
        "rankcodes.codewords_per_s.q2": codewords_per_s(F2, 6, 6, 14, rng),
        "rankcodes.codewords_per_s.q3": codewords_per_s(F3, 4, 5, 8, rng),
    }
