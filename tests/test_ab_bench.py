"""scripts/ab_bench.py: the A/B summary on canned result lines, and its
driver loop with the benchmark runs replaced by canned results (no
benchmark is started)."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)


def result_line(run_s, peak_rss_mb=20.0, correct=True):
    metrics = {"run_s": {"value": run_s, "unit": "s"}}
    if peak_rss_mb is not None:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    return json.dumps({"correct": correct, "attempted": 20, "failed": 0 if correct else 1,
                       "metrics": metrics})


def parsed(pairs):
    return [(ab_bench.parse_result(a), ab_bench.parse_result(b)) for a, b in pairs]


def test_summary_gives_medians_relative_change_and_lower_count():
    pairs = [(result_line(0.046, 20.0), result_line(0.041, 20.0)),
             (result_line(0.044, 20.0), result_line(0.040, 20.5)),
             (result_line(0.045, 20.0), result_line(0.046, 19.5)),
             (result_line(0.047, 20.0), result_line(0.039, 20.0))]
    rows = {row[0]: row[1:] for row in ab_bench.summarize(parsed(pairs))}
    assert list(rows) == ["run_s", "peak_rss_mb"]
    parent, change, rel, iqr, lower, verdict = rows["run_s"]
    assert (parent, change, lower) == (pytest.approx(0.0455), pytest.approx(0.0405), 3)
    assert rel == pytest.approx(-0.05 / 0.455)
    # the parent's quartiles of 0.044, 0.045, 0.046, 0.047 (exclusive method)
    assert iqr == pytest.approx(0.04675 - 0.04425)
    # no BENCHMARK.json entries given: no verdict
    assert verdict == "-" and rows["peak_rss_mb"] == (20.0, 20.0, 0.0, 0.0, 1, "-")


SPECS = {"run_s": {"name": "run_s", "better": "lower", "bound": 0.25},
         "evals": {"name": "evals", "better": "higher", "bound": 0.25}}


def verdict(parent, change):
    """The verdict on run_s, checked against that on a higher-is-better
    metric whose values are run_s's negated: the same verdict."""
    pairs = [({"run_s": a, "evals": -a}, {"run_s": b, "evals": -b})
             for a, b in zip(parent, change)]
    (*_, lower), (*_, higher) = ab_bench.summarize(pairs, SPECS)
    assert lower == higher
    return lower


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
# the parent's quartiles (exclusive method) are 0.9875 and 1.0125


def test_verdict_gain_needs_nine_of_ten_pairs_and_a_median_past_the_iqr():
    assert verdict(PARENT, [a - 0.05 for a in PARENT]) == "gain"
    # 9 of 10 pairs lower is enough, 8 of 10 is not
    assert verdict(PARENT, [a - 0.05 for a in PARENT[:9]] + [1.05]) == "gain"
    assert verdict(PARENT, [a - 0.05 for a in PARENT[:8]] + [1.05, 1.05]) == "unresolved"
    # 10 of 10 pairs lower, but the medians 0.02 apart, within the IQR 0.025
    assert verdict(PARENT, [a - 0.02 for a in PARENT]) == "unresolved"


def test_verdict_worse_is_a_median_past_the_bound():
    assert verdict(PARENT, [a * 1.3 for a in PARENT]) == "worse"
    assert verdict(PARENT, [a * 1.2 for a in PARENT]) == "unresolved"


def test_the_verdicts_read_the_repository_benchmark_file():
    specs = ab_bench.load_specs()
    assert {"run_s", "setup_s", "peak_rss_mb"} <= set(specs)
    assert all(spec["better"] in ("lower", "higher") and spec["bound"] > 0
               for spec in specs.values())


def test_a_failed_or_malformed_run_is_refused():
    with pytest.raises(ab_bench.RunFailed, match="1 of 20 tasks failed"):
        ab_bench.parse_result(result_line(0.04, correct=False))
    for line in ("", "[1, 2]", '{"correct": true}', '{"correct": true, "metrics": {"x": 1}}'):
        with pytest.raises(ab_bench.RunFailed):
            ab_bench.parse_result(line)


def test_a_result_that_lacks_a_parent_metric_is_refused():
    with pytest.raises(ab_bench.RunFailed, match="lacks metric.*peak_rss_mb"):
        ab_bench.summarize(parsed([(result_line(0.04), result_line(0.04, None))]))


def fake_runs(monkeypatch, fail_at=None):
    """Replace run() by canned results; the run numbered fail_at fails."""
    order = []

    def run(checkout, args):
        order.append(checkout)
        if len(order) == fail_at:
            raise ab_bench.RunFailed(f"{checkout}: exit 1")
        return ab_bench.parse_result(result_line(0.05 if checkout == "P" else 0.04))

    monkeypatch.setattr(ab_bench, "run", run)
    return order


def test_ten_alternating_pairs_by_default(monkeypatch, capsys):
    order = fake_runs(monkeypatch)
    assert ab_bench.main(["--parent", "P", "--change", "C", "--workload", "certify"]) == 0
    assert order == ["P", "C", "C", "P"] * 5
    out = capsys.readouterr().out
    assert "10/10" in out and "gain" in out


def test_the_first_failed_run_stops_the_comparison(monkeypatch, capsys):
    order = fake_runs(monkeypatch, fail_at=3)
    assert ab_bench.main(["--parent", "P", "--change", "C", "--workload", "certify"]) == 1
    assert order == ["P", "C", "C"]
    assert "exit 1" in capsys.readouterr().err


def test_all_runs_every_workload_in_turn_and_lists_the_worse(monkeypatch, capsys):
    """--workload all compares each BENCHMARK.json workload in its order,
    prints a table per workload, and names each metric judged worse."""
    seen = []
    change_run_s = {"search": 0.05, "certify": 0.04, "geometry": 0.08}

    def run(checkout, args):
        seen.append((args.workload, checkout))
        run_s = 0.05 if checkout == "P" else change_run_s[args.workload]
        return ab_bench.parse_result(result_line(run_s))

    monkeypatch.setattr(ab_bench, "run", run)
    assert ab_bench.load_workloads() == ["search", "certify", "geometry"]
    argv = ["--parent", "P", "--change", "C", "--workload", "all", "--pairs", "2"]
    assert ab_bench.main(argv) == 0
    assert seen == [(w, c) for w in ("search", "certify", "geometry") for c in "PCCP"]
    out = capsys.readouterr().out
    tables = out.split("workload ")[1:]
    assert [t.split("\n")[0] for t in tables] == ["search", "certify", "geometry"]
    verdicts = [t.split("\n")[2].split()[-1] for t in tables]
    assert verdicts == ["unresolved", "gain", "worse"]
    assert out.rstrip().endswith("worse: geometry run_s")


def test_all_stops_at_the_first_failed_run(monkeypatch, capsys):
    order = fake_runs(monkeypatch, fail_at=5)
    argv = ["--parent", "P", "--change", "C", "--workload", "all", "--pairs", "2"]
    assert ab_bench.main(argv) == 1
    assert order == ["P", "C", "C", "P", "P"]
    assert "error: certify: P: exit 1" in capsys.readouterr().err
