"""Tests of the benchmark itself, on tiny sizes.

Run from the root of the repository:  python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ainfinity import cli  # noqa: E402
from ainfinity.kadeishvili import HElement  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(out):
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [n for n in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [n for n in tracer.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload, seed):
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", "0", "--smoke")
    assert out.returncode == 0, out.stdout + out.stderr
    result = last_json(out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {n: u for n, u, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit, _ in run.END_TO_END:
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in out.stdout.splitlines()), name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_runs_emit_every_layer_metric_and_repeat_counts(workload):
    results = []
    for _ in range(2):
        out = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                    "--trace", "1", "--smoke")
        assert out.returncode == 0, out.stdout + out.stderr
        results.append(last_json(out))
    first, second = results
    assert {k: v["unit"] for k, v in first["metrics"].items()} == \
        {n: u for n, u, _ in tracer.PER_LAYER}
    exact = [n for n, u, _ in tracer.PER_LAYER
             if u in ("count", "positions", "B", "fraction")]
    assert {n: first["metrics"][n]["value"] for n in exact} == \
        {n: second["metrics"][n]["value"] for n in exact}


def test_run_without_library_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "query-file", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout


# ----- the checkers count wrong results as failed ------------------------------

@pytest.fixture(scope="module")
def small_run():
    return cli.run(cli.RunConfig(p=3, q=3, max_arity=6, verify=True))


def test_configuration_check_accepts_the_computed_structure(small_run):
    assert workloads.check_configuration(workloads.configuration_facts(small_run)) == []


def test_flipped_mq_sign_counts_as_failed(small_run):
    facts = workloads.configuration_facts(small_run)
    q = facts["q"]
    degree, coeff = facts["products"][q]
    flipped = -coeff % facts["p"]
    facts["products"][q] = (degree, flipped)
    facts["mq_sign"] = facts["file_mq_sign"] = flipped
    tally = workloads.Tally()
    tally.record("flipped", workloads.check_configuration(facts))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "pinned" in tally.problems[0]


def test_wrong_product_answer_counts_as_failed(small_run):
    doc = small_run.document
    query = workloads.Query("product", ((1, 1), (1, 0), (1, 0)), (1, 1, 2))
    expected = workloads.expected_product(3, 3, small_run.summary.mq_sign,
                                          query.key, query.coeffs)
    answer = cli.run_query(query.text, doc)
    assert workloads.check_product_answer(answer, expected) == []
    wrong = [answer[0].replace("2*", "") if "2*" in answer[0] else "2*" + answer[0]]
    tally = workloads.Tally()
    tally.record("wrong", workloads.check_product_answer(wrong, expected))
    assert tally.failed == 1


def test_wrong_map_answer_counts_as_failed(small_run):
    oracle = workloads.MapOracle(small_run.record)
    key = ((1, 1), (1, 0))
    expected = oracle.components(key)
    answer = cli.run_query("map: y*x, x", small_run.document)
    assert expected is not None
    assert workloads.check_map_answer(answer, expected) == []
    degree_off = [answer[0].replace(f"degree {expected[0]}", f"degree {expected[0] + 2}")]
    assert workloads.check_map_answer(degree_off + answer[1:], expected)
    line = answer[2]
    head, _, body = line.partition(": ")
    comps = json.loads(body)
    comps[0][0][0] = (comps[0][0][0] + 1) % 3
    bad = answer[:2] + [f"{head}: {json.dumps(comps)}"] + answer[3:]
    assert workloads.check_map_answer(bad, expected)
    assert workloads.check_map_answer(["0 (zero map)"], expected)


def test_wrong_record_value_counts_as_failed(small_run):
    record = small_run.record
    oracle = workloads.MapOracle(record)
    key = ((1, 1), (1, 0), (1, 0))
    slots = [HElement.monomial(3, m) for m in key]
    m_value, f_value = record.extend_linear(slots)
    closed = workloads.expected_product(3, 3, small_run.summary.mq_sign, key, (1, 1, 1))
    expected_f = oracle.components(key)
    assert workloads.check_record_value(m_value, f_value, closed, expected_f, 1, 3) == []
    assert workloads.check_record_value(m_value.scale(2), f_value, closed, expected_f, 1, 3)
    if expected_f is not None:
        assert workloads.check_record_value(m_value, f_value, closed, expected_f, 2, 3)


def test_operation_that_raises_counts_as_failed(monkeypatch, tmp_path):
    def broken(text, doc):
        if "y^2*x" in text:
            raise RuntimeError("broken resolver")
        return answer(text, doc)

    answer = cli.run_query
    workload = workloads.build("query-file", 3, tmp_path, smoke=True)
    tally = workloads.Tally()
    workload.set_up(tally)
    raising = sum(where != "record" and "y^2*x" in query.text
                  for where, query in workload.ops)
    assert raising > 0
    monkeypatch.setattr(cli, "run_query", broken)
    workload.run_pass(tally)
    assert tally.attempted == 2 + len(workload.ops)
    assert tally.failed == raising
    assert "broken resolver" in tally.problems[0]
    assert workload.times.metrics()["queries"] == len(workload.ops) - raising


# ----- tracing ------------------------------------------------------------------

def test_self_time_subtracts_nested_spans_once():
    t = tracer.Tracer()

    def recurse(n):
        time.sleep(0.002)
        if n:
            traced(n - 1)

    traced = tracer._wrap(t, "outer.recurse", "outer.recurse", recurse)
    t.enter_op("bench.op", 0)
    traced(3)
    t.leave_op()
    totals = t.layer_totals()
    op_duration = t.end[0] - t.start[0]
    assert totals["outer.recurse"]["calls"] == 4
    # busy counts the outermost call only; self times sum to the same interval
    outermost = t.end[1] - t.start[1]
    assert totals["outer.recurse"]["busy_s"] == pytest.approx(outermost)
    assert totals["outer.recurse"]["self_s"] == pytest.approx(outermost)
    assert totals["outer.recurse"]["self_s"] + totals["bench.op"]["self_s"] == \
        pytest.approx(op_duration)


def test_install_rebinds_names_imported_by_other_modules():
    from ainfinity import endo_dga, ff_linalg, stasheff
    originals = (ff_linalg.rref_array, endo_dga.rref_array,
                 cli.build_cyclic_resolution, cli.verify_structure)
    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        assert endo_dga.rref_array is ff_linalg.rref_array is not originals[0]
        assert cli.verify_structure is stasheff.verify_structure is not originals[3]
        t.enter_op("bench.op", 0)
        cli.run(cli.RunConfig(p=2, q=3, max_arity=4, verify=True))
        t.leave_op()
        cli.run(cli.RunConfig(p=2, q=3, max_arity=4))  # inactive: not recorded
    finally:
        restore()
    assert (ff_linalg.rref_array, endo_dga.rref_array,
            cli.build_cyclic_resolution, cli.verify_structure) == originals
    totals = t.layer_totals()
    assert totals["cli.run"]["calls"] == 1
    assert totals["resolution.build_cyclic_resolution"]["calls"] == 1
    assert totals["stasheff.verify_structure"]["calls"] == 1
    assert totals["ff_linalg.rref_array"]["calls"] > 0
    assert t.counters["ff_linalg.rref_array.cells"] > 0
    assert [t.arg[i] for i in range(len(t.name))
            if t.names[t.name[i]] == "kadeishvili.compute_arity"] == [2, 3, 4]
