"""Tests of the benchmark itself: inputs, checker and tracer."""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from check import check  # noqa: E402
from run import query_failures  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def answer(argv):
    from cycloperm import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_argv(workload):
    first = [q["argv"] for q in generate(workload, 7)]
    assert first == [q["argv"] for q in generate(workload, 7)]
    assert len(first) >= 50


@pytest.mark.parametrize("workload", ["forms-convert", "conjugacy"])
def test_seed_changes_content_not_sizes(workload):
    a, b = generate(workload, 1), generate(workload, 2)
    assert [q["argv"] for q in a] != [q["argv"] for q in b]
    shape = sorted(" ".join(q["argv"][:3]) for q in a)
    assert shape == sorted(" ".join(q["argv"][:3]) for q in b)


def small_forms_queries():
    """Cheap forms-convert queries (q <= 1024) with their real answers."""
    pool = [q for q in generate("forms-convert", 3)
            if int(q["argv"][q["argv"].index("--q") + 1]) <= 1024]
    return [(q, *answer(q["argv"])) for q in pool]


def corrupt(out: str) -> str:
    """Change the last exponent of the answer's main field."""
    payload = json.loads(out)
    for key in ("reason", "cycle_type", "inverse", "poly"):
        if key in payload:
            value = payload[key]
            last = list(re.finditer(r"\d+", value))
            if last:
                m = last[-1]
                payload[key] = (value[:m.start()] + str(int(m.group()) + 1)
                                + value[m.end():])
            else:
                payload[key] = value + "-wrong"
            return json.dumps(payload)
    raise AssertionError(f"no answer field in {out[:80]}")


def test_checker_accepts_real_and_flags_wrong_answers():
    queries = small_forms_queries()
    kinds = {q["expect"]["kind"] for q, _, _ in queries}
    assert {"analyze", "poly", "rejected"} <= kinds
    for q, code, out in queries:
        assert check(q["expect"], code, out) is None, q["argv"]
        assert check(q["expect"], code, corrupt(out)) is not None, q["argv"]
        assert check(q["expect"], 1, out) is not None


def test_checker_reports_garbled_answers():
    q, code, out = small_forms_queries()[0]
    for garbled in ("", "[1, 2]", '{"status": "ok", "poly": 7}',
                    '{"status": "ok", "cycle_index": "1/x"}'):
        assert check(q["expect"], code, garbled) is not None
    expect = generate("cycle-index", 1)[0]["expect"]
    assert check(expect, 0, '{"status": "ok", "group": "%s", "degree": %d, '
                 '"terms": %d, "cycle_index": "1/x"}'
                 % (expect["group"], expect["degree"], expect["terms"])
                 ) is not None


def test_checker_conjugacy_verdicts():
    pool = [q for q in generate("conjugacy", 5)
            if q["argv"][0] == "conjugate" and q["argv"][2] != "hol"]
    for q in pool:
        code, out = answer(q["argv"])
        assert check(q["expect"], code, out) is None, q["argv"]
        flipped = json.loads(out)
        flipped["conjugate"] = not flipped["conjugate"]
        assert check(q["expect"], code, json.dumps(flipped)) is not None


def test_one_corrupted_answer_is_one_failure(tmp_path):
    queries = small_forms_queries()[:5]
    pool = [q for q, _, _ in queries]
    lines = [[0, qid, code, out] for qid, (_, code, out) in enumerate(queries)]
    _, code, out = queries[2]
    lines.append([1, 2, code, corrupt(out)])
    answers = tmp_path / "answers.jsonl"
    answers.write_text("".join(json.dumps(line) + "\n" for line in lines))
    failures = query_failures(pool, 2, answers)
    assert [why is None for why in failures[0]] == [True] * 5
    assert [why is None for why in failures[1]] == [True, True, False, True,
                                                    True]


def test_self_time_of_nested_spans():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_clips_children_to_the_parent():
    # children overlapping each other and the parent's end
    starts = [0.0, 1.0, 2.0, 8.0]
    ends = [10.0, 4.0, 5.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(4.0)


def test_tracer_records_and_restores():
    from cycloperm import cli, conjugacy
    original = (cli.main, cli.hol_class_id, conjugacy.hol_class_id)
    tracer = Tracer()
    tracer.install()
    try:
        code, out = answer(["conjugate", "--group", "hol", "lam(5,6)@12",
                            "lam(7,0)@12", "--format", "structured"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (cli.main, cli.hol_class_id, conjugacy.hol_class_id) == original
    layers = tracer.metrics(1)
    assert layers["cli.main.calls"] == 1
    assert layers["conjugacy.hol_class_id.calls"] == 2
    # lam(5,6): gcd(1-5, 12) = 4, so 12/4 * phi(12) = 12 candidates
    assert layers["conjugacy.hol_class_id.candidates"] == 12
    assert layers["forms.calls"] == layers["cycle_index.calls"] == 0
    # every span lies inside cli.main, so self times add up to its span
    assert tracer.parents[0] == -1 and min(tracer.parents[1:]) >= 0
    total = sum(layers[f"{layer}.self_s"] for layer in
                ("cli", "arith", "field", "forms", "wreath", "cycle_index",
                 "conjugacy", "oracle"))
    assert total == pytest.approx(tracer.ends[0] - tracer.starts[0])
