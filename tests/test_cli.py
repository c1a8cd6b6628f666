"""CLI verbs: exit codes, JSON payloads, schema validation, determinism,
serialization round trips and the fixture corpus."""

import json
import os
import subprocess
import sys
import time

import jsonschema
import pytest

from ranklab import cli, fixtures, serialize
from ranklab.cli import main, run, SCHEMA_FILE
from ranklab.fields import make_tower


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_FILE) as fh:
        return json.load(fh)


def run_json(argv):
    report, _ = run(argv + ["--json"])
    # round-trip through the canonical dump so tests see what users see
    return json.loads(serialize.dumps(report))


def test_gabidulin_verb_and_schema(schema):
    rep = run_json(["gabidulin", "--N", "4", "--k", "2", "--s", "1", "--mrd-check"])
    jsonschema.validate(rep, schema)
    assert rep["results"]["mrd"] is True
    assert (rep["results"]["m"], rep["results"]["n"], rep["results"]["d"]) == (4, 4, 3)


def test_cug_pseudoregulus_report(schema):
    rep = run_json(["cug", "--pseudoregulus", "2,4,1", "--mrd-check"])
    jsonschema.validate(rep, schema)
    res = rep["results"]
    assert res["is_mrd"] is True
    assert (res["m"], res["n"], res["q"], res["d"]) == (4, 4, 2, 3)


def test_hyperplane_spectrum_verb(schema):
    rep = run_json(["hyperplane-spectrum", "--pseudoregulus", "2,4,1"])
    jsonschema.validate(rep, schema)
    assert rep["results"]["spectrum"] == {"0": 2, "1": 15}
    assert rep["results"]["matches_formula"] is True


def test_exit_codes(tmp_path, capsys):
    # usage error: unknown verb
    assert main(["no-such-verb"]) == 1
    # gate error: gcd violation, exit 2
    assert main(["gabidulin", "--N", "4", "--k", "2", "--s", "2"]) == 2
    # budget exhaustion: exit 3
    assert main(["hyperplane-spectrum", "--pseudoregulus", "2,4,1",
                 "--subspace-budget", "3"]) == 3
    # success: exit 0
    assert main(["gabidulin", "--N", "4", "--k", "2", "--s", "1"]) == 0
    capsys.readouterr()


def test_scattered_check_verb(schema):
    rep = run_json(["scattered-check", "--pseudoregulus", "2,4,1", "--h", "1"])
    jsonschema.validate(rep, schema)
    assert rep["results"]["scattered"] is True
    assert rep["results"]["iota"] == 1


def test_scattered_check_at_h1_reads_iota_off_a_scattered_verdict(tmp_path, monkeypatch):
    # a 1-scattered U has ι = 1, so one point-weight scan answers both; a
    # U with a point of weight 2 takes a second scan for ι
    from ranklab import subspaces

    scans = []
    weight_counts = subspaces._weight_counts

    def counted(*args, **kwargs):
        scans.append(args[0])
        return weight_counts(*args, **kwargs)

    monkeypatch.setattr(subspaces, "_weight_counts", counted)
    res = run_json(["scattered-check", "--pseudoregulus", "2,4,1", "--h", "1"])["results"]
    assert (res["scattered"], res["iota"], len(scans)) == (True, 1, 1)
    tower = make_tower(2, 1, 4, 1)
    g = tower.mid.gen
    U = subspaces.FqSubspace.from_mid_vectors(tower, 2, [(1, 0), (g, 0), (0, 1), (1, g)])
    path = tmp_path / "heavy.json"
    serialize.dump_file(str(path), serialize.subspace_to_json(U))
    scans.clear()
    res = run_json(["scattered-check", "--subspace", str(path), "--h", "1"])["results"]
    assert (res["scattered"], res["iota"], len(scans)) == (False, 2, 2)


def test_dualize_verbs(tmp_path, schema):
    sub_file = tmp_path / "u.json"
    U = fixtures.pseudoregulus(2, 4, 1)
    serialize.dump_file(str(sub_file), serialize.subspace_to_json(U))
    rep = run_json(["dualize", "--subspace", str(sub_file), "--ordinary"])
    jsonschema.validate(rep, schema)
    assert rep["results"]["k"] == 4 and rep["results"]["involution_ok"] is True
    dual = serialize.subspace_from_json(rep["results"]["artifact"])
    assert dual.k == 4
    rep = run_json(["dualize", "--subspace", str(sub_file), "--delsarte"])
    assert rep["results"]["double_dual_equals_input"] is True
    out = tmp_path / "dual.json"
    report, _ = run(["dualize", "--subspace", str(sub_file), "--delsarte",
                     "--out", str(out)])
    assert serialize.subspace_from_json(serialize.load_file(str(out))).k == 4


def test_code_verbs_round_trip(tmp_path, schema):
    code_file = tmp_path / "gab.json"
    serialize.dump_file(str(code_file),
                        serialize.rankcode_to_json(fixtures.gabidulin_4_2_1()))
    rep = run_json(["mrd-check", "--code", str(code_file)])
    assert rep["results"]["mrd"] is True
    rep = run_json(["rank-dist", "--code", str(code_file)])
    assert rep["results"]["A"] == [1, 0, 0, 225, 30]
    rep = run_json(["idealiser", "--code", str(code_file), "--right"])
    assert rep["results"]["order"] == 16 and rep["results"]["is_field"] is True
    rep = run_json(["dualize-code", "--code", str(code_file)])
    assert rep["results"]["K"] == 8
    rep = run_json(["extract-subspace", "--code", str(code_file)])
    jsonschema.validate(rep, schema)
    assert rep["results"]["k"] == 4 and rep["results"]["iota"] == 1
    assert rep["results"]["reconstruction_equal"] is True


def test_certify_verb(tmp_path):
    f1, f2 = tmp_path / "c1.json", tmp_path / "c2.json"
    serialize.dump_file(str(f1),
                        serialize.rankcode_to_json(fixtures.gabidulin_4_2_1()))
    serialize.dump_file(str(f2), serialize.rankcode_to_json(
        fixtures.cug_pseudoregulus()))
    rep = run_json(["certify-inequivalent", "--code", str(f1), "--code2", str(f2)])
    assert rep["results"]["status"] in ("certified-inequivalent", "inconclusive")


def test_puncture_verb(tmp_path):
    code_file = tmp_path / "gab.json"
    serialize.dump_file(str(code_file),
                        serialize.rankcode_to_json(fixtures.gabidulin_4_2_1()))
    mat_file = tmp_path / "a.json"
    serialize.dump_file(str(mat_file), {
        "level": "base", "rows": 3, "cols": 4,
        "entries": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]})
    rep = run_json(["puncture", "--code", str(code_file), "--matrix", str(mat_file)])
    assert (rep["results"]["m"], rep["results"]["d"]) == (3, 2)
    assert rep["results"]["mrd"] is True


def test_search_verb_determinism(schema):
    argv = ["search-scattered", "--r", "2", "--n", "4", "--h", "1", "--k", "4",
            "--seed", "9", "--budget", "120"]
    rep1, rep2 = run_json(argv), run_json(argv)
    jsonschema.validate(rep1, schema)
    assert serialize.dumps(rep1["results"]) == serialize.dumps(rep2["results"])


def test_search_zero_budget_evaluates_nothing():
    rep = run_json(["search-scattered", "--r", "2", "--n", "3", "--h", "1", "--k", "2",
                    "--seed", "1", "--budget", "0"])
    assert rep["results"] == {"found": False, "evaluations": 0, "seed": 1}


@pytest.mark.parametrize("q", ["4", "5", "8", "9"])
def test_search_below_dimension_r_evaluates_nothing(q):
    # k = 2 < r = 3: no candidate can span V(3, q^2)
    rep = run_json(["search-scattered", "--r", "3", "--n", "2", "--h", "2", "--k", "2",
                    "--q", q, "--seed", "2", "--budget", "40"])
    assert rep["results"] == {"found": False, "evaluations": 0, "seed": 2}


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_search_time_budget_must_be_finite_and_nonnegative(value, capsys):
    # a NaN would reach the report's parameters as a bare NaN, which is not JSON
    assert main(["search-scattered", "--r", "2", "--n", "4", "--h", "1", "--k", "4",
                 "--seed", "1", "--time-budget", value, "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "time budget must be finite and >= 0" in err


@pytest.mark.parametrize("r,h,k,message", [("2", "1", "-1", "0 <= k <= rn/(h+1)"),
                                           ("2", "3", "1", "1 <= h <= r-1"),
                                           ("2", "0", "1", "1 <= h <= r-1")])
def test_search_refuses_k_or_h_out_of_range(r, h, k, message, capsys):
    # k = -1 once hung; h = 3 once spent the whole budget and exited 0
    assert main(["search-scattered", "--r", r, "--n", "4", "--h", h, "--k", k,
                 "--seed", "1"]) == 2
    assert message in capsys.readouterr().err


def test_search_requires_seed():
    assert main(["search-scattered", "--r", "2", "--n", "4", "--h", "1",
                 "--k", "4"]) == 1


def test_projsys_and_qsystem_verbs(schema):
    rep = run_json(["projsys-code", "--pseudoregulus", "2,4,1", "--enumerator"])
    jsonschema.validate(rep, schema)
    assert (rep["results"]["N"], rep["results"]["k"], rep["results"]["d"]) == (15, 2, 14)
    assert rep["results"]["enumerator"] == {"14": 15, "15": 2}
    rep = run_json(["projsys-code", "--pseudoregulus", "2,4,1", "--enumerator",
                    "--codeword-count"])
    assert rep["results"]["enumerator"] == {"14": 225, "15": 30}
    rep = run_json(["qsystem-code", "--pseudoregulus", "2,4,1"])
    assert (rep["results"]["N"], rep["results"]["k"], rep["results"]["d"]) == (4, 2, 3)


def test_twisted_verb_eta_gate():
    assert main(["twisted-gabidulin", "--N", "4", "--k", "2", "--s", "1",
                 "--eta", "3", "--q", "2"]) == 2
    rep = run_json(["twisted-gabidulin", "--N", "4", "--k", "2", "--s", "1",
                    "--eta-nonsquare", "--q", "3", "--mrd-check"])
    assert rep["results"]["mrd"] is True and rep["results"]["d"] == 3


@pytest.mark.parametrize("eta", ["-1", "81", "99999"])
def test_twisted_verb_rejects_eta_outside_the_field(eta, capsys):
    # an element code of F_81 lies in 0..80: a gate error, not a traceback
    # (99999) or a silent wrap to another element (-1)
    assert main(["twisted-gabidulin", "--N", "4", "--k", "2", "--q", "3",
                 "--eta", eta, "--mrd-check"]) == 2
    assert f"InvalidParams: need 0 <= eta < q^N = 81, got eta={eta}" in capsys.readouterr().err


@pytest.mark.parametrize("s", ["-1", "5", "-3"])
def test_gabidulin_verbs_reject_s_outside_one_to_n(s, capsys):
    # exit 2 with the gate's text, where they built the code of s mod N
    for verb in (["gabidulin"], ["twisted-gabidulin", "--q", "3", "--eta-nonsquare"]):
        assert main(verb + ["--N", "4", "--k", "2", "--s", s, "--mrd-check"]) == 2
        assert f"InvalidParams: need 1 <= s < N, got s={s}" in capsys.readouterr().err
        assert main(verb + ["--N", "4", "--k", "2", "--s", "0"]) == 2
        assert "GcdViolation: gcd(s, N) must be 1" in capsys.readouterr().err


def test_linset_points_verb():
    rep = run_json(["linset-points", "--pseudoregulus", "2,4,1"])
    assert rep["results"]["size"] == 15
    assert rep["results"]["weights"] == {"1": 15}


def test_fixtures_dir_that_cannot_be_made_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("")
    assert main(["fixtures", "--dir", str(blocker / "sub")]) == 1
    assert capsys.readouterr().err.startswith("io error: cannot create ")


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    # a fresh interpreter: the test modules themselves may load dataclasses
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, ranklab.cli, ranklab.fixtures; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_fixture_corpus_round_trip(tmp_path):
    rep = run_json(["fixtures", "--dir", str(tmp_path)])
    files = rep["results"]["files"]
    assert any("pseudoregulus_2_4_1" in f for f in files)
    for rel in files:
        obj = serialize.load_file(os.path.join(str(tmp_path), rel))
        if rel.endswith(".subspace.json"):
            U = serialize.subspace_from_json(obj)
            assert serialize.subspace_to_json(U) == obj
        elif rel.endswith(".code.json"):
            C = serialize.rankcode_from_json(obj)
            assert serialize.rankcode_to_json(C) == obj
        elif rel.endswith(".tower.json"):
            t = serialize.tower_from_json(obj)
            assert serialize.tower_to_json(t) == obj


def test_artifact_out_file(tmp_path):
    out = tmp_path / "gab.code.json"
    report, _ = run(["gabidulin", "--N", "4", "--k", "2", "--s", "1",
                     "--out", str(out)])
    obj = serialize.load_file(str(out))
    C = serialize.rankcode_from_json(obj)
    assert C == fixtures.gabidulin_4_2_1()


def test_deserialized_code_interoperates(tmp_path):
    # field interning: a deserialized code compares equal to a built one
    obj = serialize.rankcode_to_json(fixtures.gabidulin_4_2_1())
    C = serialize.rankcode_from_json(json.loads(serialize.dumps(obj)))
    assert C == fixtures.gabidulin_4_2_1()


def test_tower_json_rejects_tampered_moduli():
    obj = serialize.tower_to_json(make_tower(2, 1, 4, 1))
    obj["modulus_mid"] = [[1], [0], [1], [1], [1]]
    from ranklab.errors import UsageError

    with pytest.raises(UsageError):
        serialize.tower_from_json(obj)


def test_code_json_rejects_out_of_range_entries():
    obj = serialize.rankcode_to_json(fixtures.gabidulin_4_2_1())
    obj["basis"][0][0][0] = 7  # not a GF(2) code
    from ranklab.errors import UsageError

    with pytest.raises(UsageError):
        serialize.rankcode_from_json(obj)


def _gabidulin_code_file(tmp_path):
    path = tmp_path / "gab.json"
    serialize.dump_file(str(path), serialize.rankcode_to_json(fixtures.gabidulin_4_2_1()))
    return str(path)


def test_negative_budgets_are_usage_errors(tmp_path, capsys):
    code = _gabidulin_code_file(tmp_path)
    for flag in ("--codeword-budget", "--subspace-budget"):
        assert main(["rank-dist", "--code", code, flag, "-1"]) == 1
        assert "budget must be >= 0" in capsys.readouterr().err
    assert main(["search-scattered", "--r", "2", "--n", "4", "--h", "1", "--k", "4",
                 "--seed", "1", "--budget", "-1"]) == 1
    assert "budget must be >= 0" in capsys.readouterr().err


def test_codeword_budget_caps_the_shorter_rank_scan(tmp_path, capsys):
    # K = 8 over F_2, 4x4: 2^8 = 256 codewords but only 67 subspaces of F_2^4
    code = _gabidulin_code_file(tmp_path)
    rep = run_json(["rank-dist", "--code", code, "--codeword-budget", "100"])
    assert rep["results"]["A"] == [1, 0, 0, 225, 30]
    # over the budget on both counts: exit 3, naming the cheaper scan's unit
    assert main(["rank-dist", "--code", code, "--codeword-budget", "50"]) == 3
    assert "67 subspaces of F_2^4 exceeds budget 50" in capsys.readouterr().err


def test_cug_mrd_check_is_gated_by_the_subspace_budget(capsys):
    # C_{U,G} reads its rank distribution off L_U, so no codeword scan runs:
    # a zero codeword budget passes, and the ι walk's budget is the gate
    rep = run_json(["cug", "--pseudoregulus", "2,4,1", "--mrd-check",
                    "--codeword-budget", "0"])
    assert (rep["results"]["d"], rep["results"]["is_mrd"]) == (3, True)
    assert main(["cug", "--pseudoregulus", "2,4,1", "--mrd-check",
                 "--subspace-budget", "3"]) == 3
    assert "15 subspace F_q-points exceeds budget 3" in capsys.readouterr().err


def test_malformed_code_json_is_a_usage_error(tmp_path, capsys):
    from ranklab.errors import UsageError

    path = tmp_path / "empty.json"
    path.write_text("{}")
    assert main(["rank-dist", "--code", str(path)]) == 1
    assert "missing key 'p'" in capsys.readouterr().err
    obj = serialize.rankcode_to_json(fixtures.gabidulin_4_2_1())
    obj["m"] = "4"
    with pytest.raises(UsageError, match="'m'"):
        serialize.rankcode_from_json(obj)


def test_malformed_subspace_json_is_a_usage_error(tmp_path, capsys):
    from ranklab.errors import UsageError

    path = tmp_path / "empty.json"
    path.write_text("{}")
    assert main(["scattered-check", "--subspace", str(path), "--h", "1"]) == 1
    assert "missing key 'tower'" in capsys.readouterr().err
    obj = serialize.subspace_to_json(fixtures.pseudoregulus(2, 4, 1))
    obj["basis_mid"] = 3
    with pytest.raises(UsageError, match="'basis_mid'"):
        serialize.subspace_from_json(obj)


@pytest.mark.parametrize("key, value, message", [
    ("m", -1, "'m' and 'n' must be >= 1"), ("n", 0, "'m' and 'n' must be >= 1"),
    # 4 x 4 basis matrices in a 3 x 4 and in a 4 x 5 code, a field of
    # order 4^1: gate errors of the code's build, read as malformed input
    ("m", 3, "code: generator has wrong shape"), ("n", 5, "code: generator has wrong shape"),
    ("p", 4, "code: 4 is not prime")])
def test_nonpositive_code_shape_is_a_usage_error(tmp_path, capsys, key, value, message):
    obj = serialize.rankcode_to_json(fixtures.gabidulin_4_2_1())
    # an empty basis has no matrix of the wrong shape
    bases = [obj["basis"]] if "wrong shape" in message else [obj["basis"], []]
    for basis in bases:
        path = tmp_path / "bad.json"
        serialize.dump_file(str(path), dict(obj, basis=basis, **{key: value}))
        assert main(["rank-dist", "--code", str(path)]) == 1
        assert message in capsys.readouterr().err


def _bad_coefficient(obj):
    obj["basis_mid"][0][0]["coeffs"] = [3, 0, 0, 0]      # p = 2


def _negative_r(obj):
    obj["r"] = -1


def _short_vector(obj):
    obj["basis_mid"][0] = obj["basis_mid"][0][:1]


def _top_level_element(obj):
    # a t = 2 tower: an element of F_{q^{2n}} is not a coordinate in F_{q^n}
    fe = obj["basis_mid"][0][1]
    fe["level"], fe["coeffs"] = "top", fe["coeffs"] + [1] * len(fe["coeffs"])


def _unknown_level(obj):
    obj["basis_mid"][0][0]["level"] = "foo"


def _tower_key(key, value, message):
    def spoil(obj):
        obj["tower"][key] = value
    return pytest.param(spoil, 1, message, id=f"_tower_{key}_{value}")


@pytest.mark.parametrize("spoil, t, message", [
    (_bad_coefficient, 1, "integers in 0..1"),
    (_negative_r, 1, "'r' must be >= 0"),
    (_short_vector, 1, "lists of r = 2 elements"),
    (_top_level_element, 2, "not of the top field"),
    # gate errors of the tower's or the subspace's build (WrongLevel,
    # NotPrime, InvalidParams), read as malformed input
    (_unknown_level, 1, "subspace: unknown level 'foo'"),
    _tower_key("p", 4, "subspace: 4 is not prime"),
    _tower_key("e", 0, "subspace: e, n, t must be >= 1"),
    _tower_key("n", 0, "subspace: e, n, t must be >= 1"),
    _tower_key("t", -1, "subspace: e, n, t must be >= 1"),
])
def test_malformed_subspace_entries_are_usage_errors(tmp_path, capsys, spoil, t, message):
    from ranklab.constructions import pseudoregulus_subspace

    n = 4 if t == 1 else 2
    obj = serialize.subspace_to_json(pseudoregulus_subspace(make_tower(2, 1, n, t), 2, n, 1))
    path = tmp_path / "good.json"
    serialize.dump_file(str(path), obj)
    assert main(["scattered-check", "--subspace", str(path), "--h", "1"]) == 0
    spoil(obj)
    path = tmp_path / "bad.json"
    serialize.dump_file(str(path), obj)
    assert main(["scattered-check", "--subspace", str(path), "--h", "1"]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("p, e, n", [(2, 1, 4), (2, 2, 2), (3, 1, 3)])
def test_out_of_range_coefficient_is_a_usage_error(tmp_path, capsys, p, e, n):
    """Over F_16 and F_27, a coefficient past p - 1 in a subspace file exits
    1 with a usage error, before any subspace is built."""
    from ranklab.constructions import pseudoregulus_subspace

    obj = serialize.subspace_to_json(pseudoregulus_subspace(make_tower(p, e, n, 1), 2, n, 1))
    obj["basis_mid"][-1][1]["coeffs"][-1] = p
    path = tmp_path / "bad.json"
    serialize.dump_file(str(path), obj)
    assert main(["scattered-check", "--subspace", str(path), "--h", "1"]) == 1
    assert f"usage error: element: key 'coeffs' must hold integers in 0..{p - 1}" \
        in capsys.readouterr().err


def test_linear_set_verbs_honour_the_subspace_budget(tmp_path, capsys):
    fixtures.materialize(str(tmp_path))
    path = str(tmp_path / fixtures.CORPUS_VERSION / "pseudoregulus_2_4_1_q2.subspace.json")
    for verb in ("linset-points", "projsys-code"):
        assert main([verb, "--subspace", path, "--subspace-budget", "3"]) == 3
        assert "15 subspace F_q-points exceeds budget 3" in capsys.readouterr().err


def test_projsys_enumerator_honours_the_subspace_budget(capsys):
    # linear_set walks U's θ_7(2) = 255 F_q-points, within the budget; the code scans
    # visit 255·theta_2(16) = 69615 point-hyperplane incidences
    assert main(["projsys-code", "--pseudoregulus", "4,4,1", "--enumerator",
                 "--subspace-budget", "1000"]) == 3
    assert "69615 point-hyperplane incidences" in capsys.readouterr().err


def test_malformed_matrix_json_is_a_usage_error(tmp_path, capsys):
    code = _gabidulin_code_file(tmp_path)
    good = {"level": "base", "rows": 3, "cols": 4,
            "entries": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]}
    missing_entries = {k: v for k, v in good.items() if k != "entries"}
    for key, obj in (("entries", missing_entries), ("cols", dict(good, cols="x")),
                     ("level", dict(good, level=3)), ("cols", dict(good, cols=3))):
        path = tmp_path / "bad.json"
        serialize.dump_file(str(path), obj)
        assert main(["puncture", "--code", code, "--matrix", str(path)]) == 1
        assert f"'{key}'" in capsys.readouterr().err


def test_reports_carry_no_threads_key(tmp_path, schema, capsys):
    code_file = tmp_path / "gab.json"
    serialize.dump_file(str(code_file),
                        serialize.rankcode_to_json(fixtures.gabidulin_4_2_1()))
    rep = run_json(["mrd-check", "--code", str(code_file)])
    jsonschema.validate(rep, schema)
    assert "threads" not in rep and "threads" not in rep["parameters"]
    # the flag is gone: passing it is a usage error
    assert main(["mrd-check", "--code", str(code_file), "--threads", "-5", "--json"]) == 1
    capsys.readouterr()


def test_broken_invariant_exits_4_not_2(monkeypatch, capsys):
    from ranklab import constructions
    from ranklab.errors import GateError, InternalInvariantError

    assert not issubclass(InternalInvariantError, GateError)
    # a kernel that disagrees with U trips c_ug's internal consistency check
    monkeypatch.setattr(constructions, "kernel", lambda M: None)
    assert main(["cug", "--pseudoregulus", "2,4,1"]) == 4
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("triple, message", [
    ("0,4,1", "need r >= 1 and 0 < h < n"),
    ("-2,4,1", "need r >= 1 and 0 < h < n"),
    ("2,4,-1", "need r >= 1 and 0 < h < n"),
    ("a,4,1", "usage error: expected r,n,h"),
])
def test_malformed_pseudoregulus_is_a_clean_error(capsys, triple, message):
    code = main(["projsys-code", f"--pseudoregulus={triple}"])
    assert code == (1 if triple.startswith("a") else 2)
    assert message in capsys.readouterr().err


def test_subspace_json_with_r_zero_is_a_usage_error(tmp_path, capsys):
    obj = serialize.subspace_to_json(fixtures.pseudoregulus(2, 4, 1))
    path = tmp_path / "r0.json"
    serialize.dump_file(str(path), dict(obj, r=0, basis_mid=[], k=0))
    for verb in (["projsys-code"], ["dualize", "--ordinary"], ["linset-points"], ["cug"]):
        assert main([verb[0], "--subspace", str(path)] + verb[1:]) == 1
        assert "'r' must be >= 1" in capsys.readouterr().err


def test_large_prime_q_is_refused_before_factoring(capsys):
    # trial division up to q = 2^31 - 1 would take minutes; the tower budget
    # (2^24 field elements) refuses such a q at once
    start = time.perf_counter()
    assert main(["gabidulin", "--q", "2147483647", "--N", "2", "--k", "1"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "field elements exceeds budget" in capsys.readouterr().err


@pytest.mark.parametrize("kind, spoil, verb, needed", [
    # trial division would take ~1.5·10^9 steps to prove p = 2^61 - 1 prime
    ("subspace", {"p": 2**61 - 1}, ["scattered-check", "--h", "1"], f"{(2**61 - 1)**4} "),
    ("code", {"p": 2**61 - 1, "q": 2**61 - 1}, ["mrd-check"], f"{2**61 - 1} "),
    # 2^(e·n·t) with e = 10^11 would hold 5·10^10 bytes: never evaluated
    ("subspace", {"e": 10**11}, ["scattered-check", "--h", "1"], "2^400000000000 "),
], ids=["subspace-p", "code-p", "subspace-e"])
def test_oversized_tower_is_refused_before_factoring_p(tmp_path, capsys, monkeypatch,
                                                       kind, spoil, verb, needed):
    from ranklab import fields

    def no_factoring(m):
        raise AssertionError(f"trial division of {m}")

    if kind == "code":
        obj = dict(serialize.rankcode_to_json(fixtures.gabidulin_4_2_1()), **spoil)
    else:
        obj = serialize.subspace_to_json(fixtures.pseudoregulus(2, 4, 1))
        obj["tower"].update(spoil)
    path = tmp_path / f"{kind}.json"
    serialize.dump_file(str(path), obj)
    monkeypatch.setattr(fields, "prime_factors", no_factoring)
    start = time.perf_counter()
    assert main([verb[0], f"--{kind}", str(path)] + verb[1:]) == 3
    assert time.perf_counter() - start < 1.0
    assert f"enumeration of {needed}" in capsys.readouterr().err


def test_parse_q_factors_below_the_square_root():
    from ranklab.errors import UsageError

    start = time.perf_counter()
    assert cli._parse_q(16777213) == (16777213, 1)   # the largest prime below 2^24
    assert time.perf_counter() - start < 0.25
    assert [cli._parse_q(q) for q in (2, 4, 9, 125, 4096)] == \
        [(2, 1), (2, 2), (3, 2), (5, 3), (2, 12)]
    for q in (6, 12, 16777215):
        with pytest.raises(UsageError):
            cli._parse_q(q)


def test_parser_tree_is_built_once_across_runs(monkeypatch, capsys):
    builds = []
    add_subparsers = cli._Parser.add_subparsers

    def counted(self, **kw):
        builds.append(self.prog)
        return add_subparsers(self, **kw)

    monkeypatch.setattr(cli._Parser, "add_subparsers", counted)
    cli.build_parser.cache_clear()
    for argv in (["gabidulin", "--N", "3", "--k", "1"], ["cug", "--pseudoregulus", "2,3,1"],
                 ["gabidulin", "--N", "x"]):
        main(argv + ["--json"])
    capsys.readouterr()
    assert builds == ["rank-lab"]
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_leaks_no_state_between_runs(capsys):
    gab = ["gabidulin", "--N", "4", "--k", "2"]
    assert "mrd" in run_json(gab + ["--mrd-check"])["results"]
    second = run_json(gab)
    assert "mrd" not in second["results"] and second["parameters"]["mrd_check"] is False
    assert main(["twisted-gabidulin", "--N", "4", "--k", "2"]) == 1
    assert main(gab + ["--json"]) == 0
    capsys.readouterr()
