"""Golden CLI payloads: every recorded verb run must reproduce its exit code,
its stderr text and its "results" payload (artifact included) exactly.

The cases cover the subspace verbs and the code verbs on the fixture corpus,
a few pseudoregulus parameter sets at odd and even q, extra inputs under
tests/golden/inputs (a q = 5 subspace, one whose point weights take the
point-scan side, and one whose dual would take it), C_{U,G} and Gabidulin codes
whose ranks are read off the point weights of the subspace they carry (U,
and U^⊥' for the q-system U), and budget exits.  To record them afresh (only when a change
to the payloads is intended and explained):

    PYTHONPATH=src python tests/test_golden_cli.py --record

Paths in argv and stderr are stored as the placeholders {corpus} (a fresh
fixtures.materialize directory) and {inputs} (tests/golden/inputs).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile

from ranklab import cli, fixtures, serialize

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "cli_payloads.json")
INPUTS = os.path.join(HERE, "golden", "inputs")

SUBSPACE_FILES = [
    "{corpus}/v1/pseudoregulus_2_4_1_q2.subspace.json",
    "{corpus}/v1/pseudoregulus_4_4_1_q2.subspace.json",
    "{corpus}/v1/subgeometry_3_3_2_q2.subspace.json",
    "{corpus}/v1/remark_counterexample_2_4_q2.subspace.json",
    "{corpus}/v1/certified_new_witness_3_6_1_q2.subspace.json",
    # q = 5, r = 2, n = 4, k = 3: at r = 2 and k <= n the hyperplanes are
    # points, so the Delsarte precondition walks U's θ_2(5) = 31 F_q-points
    "{inputs}/random_2_4_k3_q5.subspace.json",
    # k = 7 in F_16^2: θ_6(2) = 127 > 4·θ_1(16) = 68, iota takes the point scan
    "{inputs}/random_2_4_k7_q2.subspace.json",
    # k = 3 in F_64^2: the Delsarte precondition walks U's θ_2(2) = 7
    # F_q-points, where the dual's θ_8(2) = 511 would exceed the point
    # scan's 6·θ_1(64) = 390
    "{inputs}/random_2_6_k3_q2.subspace.json",
]
# k = 4 in F_16^3 spans V and meets one hyperplane in dimension 3: a near miss
# of a maximum 2-scattered subspace, whose hyperplanes the r = 3, h = 2 verbs
# read off the point weights of the ordinary dual
NEAR_MISS = "{inputs}/random_3_4_k4_q2.subspace.json"
SUBSPACE_VERBS = [
    ["scattered-check", "--h", "1"],
    ["dualize", "--ordinary"],
    ["dualize", "--delsarte"],
    ["cug", "--mrd-check"],
    ["linset-points"],
    ["hyperplane-spectrum"],
    ["qsystem-code"],
    ["projsys-code"],
]
CODE_FILES = [
    "{corpus}/v1/gabidulin_4_2_1_q2.code.json",
    "{corpus}/v1/gabidulin_4_2_1_q2_dual.code.json",
    "{corpus}/v1/twisted_gabidulin_4_2_1_q3.code.json",
    "{corpus}/v1/cug_pseudoregulus_2_4_1_q2.code.json",
    "{corpus}/v1/gabidulin_restriction_6_3_1_q2.code.json",
]
CODE_VERBS = [
    ["mrd-check"],
    ["rank-dist"],
    ["idealiser", "--right"],
    ["idealiser", "--left"],
    ["dualize-code"],
    ["extract-subspace"],
]
EXTRA = [
    ["scattered-check", "--subspace", SUBSPACE_FILES[2], "--h", "2"],
    ["scattered-check", "--pseudoregulus", "2,4,1", "--q", "3", "--h", "1"],
    ["hyperplane-spectrum", "--pseudoregulus", "3,3,2", "--q", "3"],
    ["hyperplane-spectrum", "--pseudoregulus", "2,4,1", "--q", "9"],
    ["hyperplane-spectrum", "--pseudoregulus", "2,3,1", "--q", "5"],
    ["dualize", "--pseudoregulus", "2,3,1", "--q", "9", "--delsarte"],
    ["cug", "--pseudoregulus", "2,3,1", "--q", "4", "--mrd-check"],
    ["projsys-code", "--subspace", SUBSPACE_FILES[0], "--enumerator"],
    ["projsys-code", "--subspace", SUBSPACE_FILES[2], "--enumerator", "--codeword-count"],
    ["certify-inequivalent", "--code", CODE_FILES[0], "--code2", CODE_FILES[3]],
    ["puncture", "--code", CODE_FILES[0], "--matrix", "{inputs}/puncture_3x4.matrix.json"],
    ["gabidulin", "--N", "4", "--k", "2", "--q", "3", "--mrd-check"],
    ["twisted-gabidulin", "--N", "4", "--k", "2", "--q", "3", "--eta-nonsquare",
     "--mrd-check"],
    ["search-scattered", "--r", "2", "--n", "4", "--h", "1", "--k", "4",
     "--seed", "5", "--budget", "20"],
    ["search-scattered", "--r", "3", "--n", "4", "--h", "2", "--k", "4",
     "--seed", "5", "--budget", "60"],
    ["scattered-check", "--subspace", NEAR_MISS, "--h", "2"],
    ["hyperplane-spectrum", "--subspace", NEAR_MISS],
    # k - (r - h)·n = 9 - 6 > h: every 2-dim W meets U in dimension 3 or more
    ["scattered-check", "--subspace", SUBSPACE_FILES[4], "--h", "2"],
    # budget exits: the walk side counts subspace vectors, the scan side points
    ["hyperplane-spectrum", "--subspace", SUBSPACE_FILES[0], "--subspace-budget", "3"],
    ["scattered-check", "--subspace", SUBSPACE_FILES[6], "--h", "1",
     "--subspace-budget", "3"],
    ["dualize", "--subspace", SUBSPACE_FILES[5], "--delsarte", "--subspace-budget", "3"],
    # h = r - 1: the hyperplanes are read off the dual's 255 F_q-points (the
    # walk, cheaper than scanning its θ_2(16) = 273 points); neither fits 3
    ["scattered-check", "--subspace", NEAR_MISS, "--h", "2", "--subspace-budget", "3"],
    ["rank-dist", "--code", CODE_FILES[4], "--codeword-budget", "3"],
    # read off the hyperplane weights of the code's q-system U ⊂ F_64^3: the
    # walk over the θ_11(2) = 4095 F_q-points of U^⊥'
    ["gabidulin", "--N", "6", "--k", "3", "--q", "2", "--mrd-check"],
    # 4095 F_q-points, 2825 subspaces of F_2^6 and 2^18 codewords all exceed
    # 2824: the exit names the cheapest engine's unit
    ["gabidulin", "--N", "6", "--k", "3", "--q", "2", "--mrd-check",
     "--codeword-budget", "2824"],
]


def cases() -> list[list[str]]:
    out = [[verb[0], "--subspace", path] + verb[1:]
           for path in SUBSPACE_FILES for verb in SUBSPACE_VERBS]
    out += [[verb[0], "--code", path] + verb[1:]
            for path in CODE_FILES for verb in CODE_VERBS]
    return out + EXTRA


def run_case(argv: list[str], corpus: str) -> dict:
    """Exit code, stderr and results of one in-process verb run, with the
    corpus and inputs paths written back as placeholders."""
    real = [a.replace("{corpus}", corpus).replace("{inputs}", INPUTS) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(real + ["--json"])
    stderr = err.getvalue().replace(corpus, "{corpus}").replace(INPUTS, "{inputs}")
    results = json.loads(out.getvalue())["results"] if code == 0 else None
    return {"argv": argv, "exit": code, "stderr": stderr, "results": results}


def test_cli_payloads_match_the_recorded_goldens(tmp_path):
    fixtures.materialize(str(tmp_path))
    with open(GOLDEN) as fh:
        want = json.load(fh)
    assert [c["argv"] for c in want] == cases()
    bad = [" ".join(c["argv"]) for c in want
           if run_case(c["argv"], str(tmp_path)) != c]
    assert not bad, f"{len(bad)} payloads differ: {bad}"


def test_every_verb_has_a_golden_case_and_a_readme_entry():
    with open(os.path.join(HERE, os.pardir, "README.md")) as fh:
        readme = fh.read()
    paragraph = readme.split("Verbs: ", 1)[1].split("\n\n", 1)[0]
    named = {entry.split()[0] for entry in paragraph.split("`")[1::2]}
    recorded = {argv[0] for argv in cases()}
    # fixtures writes a corpus directory; test_fixture_corpus_round_trip covers it
    assert set(cli.VERBS) - recorded == {"fixtures"}
    assert set(cli.VERBS) <= named


def _write_inputs() -> None:
    from ranklab.fields import make_tower
    from ranklab.subspaces import random_subspace

    os.makedirs(INPUTS, exist_ok=True)
    t2, t5, t64 = make_tower(2, 1, 4, 1), make_tower(5, 1, 4, 1), make_tower(2, 1, 6, 1)
    subs = {
        "random_3_4_k4_q2": random_subspace(t2, 3, 4, random.Random(0)),
        "random_2_4_k3_q5": random_subspace(t5, 2, 3, random.Random(5)),
        "random_2_4_k7_q2": random_subspace(t2, 2, 7, random.Random(7)),
        "random_2_6_k3_q2": random_subspace(t64, 2, 3, random.Random(3)),
    }
    for name, U in subs.items():
        serialize.dump_file(os.path.join(INPUTS, f"{name}.subspace.json"),
                            serialize.subspace_to_json(U))
    serialize.dump_file(os.path.join(INPUTS, "puncture_3x4.matrix.json"),
                        {"level": "base", "rows": 3, "cols": 4,
                         "entries": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]})


def record() -> None:
    _write_inputs()
    with tempfile.TemporaryDirectory() as corpus:
        fixtures.materialize(corpus)
        got = [run_case(argv, corpus) for argv in cases()]
    with open(GOLDEN, "w") as fh:
        json.dump(got, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_cli.py --record")
    record()
