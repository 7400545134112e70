"""Metric correctness against worked examples and a brute-force oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimicrank.evaluation import (
    average_precision,
    evaluate,
    evaluate_run,
    format_metric_table,
    ndcg_at_k,
    precision_at_k,
    read_qrels,
    read_run,
    write_run,
)

# ---------------------------------------------------------------------------
# Brute-force reference implementations (kept deliberately naive and
# structurally different from the library code)


def ref_ap(ranking, relevant_set):
    total = len(relevant_set)
    if total == 0:
        return 0.0
    precisions = []
    for i in range(len(ranking)):
        if ranking[i] in relevant_set:
            found = len([d for d in ranking[: i + 1] if d in relevant_set])
            precisions.append(found / (i + 1))
    return sum(precisions) / total


def ref_p_at_k(ranking, relevant_set, k):
    return len([d for d in ranking[:k] if d in relevant_set]) / k


def ref_ndcg(ranking, grade_map, k):
    def dcg(grade_seq):
        return sum(g / math.log2(i + 2) for i, g in enumerate(grade_seq[:k]))

    actual = dcg([grade_map.get(d, 0) for d in ranking])
    ideal = dcg(sorted(grade_map.values(), reverse=True))
    return actual / ideal if ideal > 0 else 0.0


# ---------------------------------------------------------------------------
# Worked examples


def test_ap_worked_example():
    grades = {"d1": 1, "d3": 1}
    assert average_precision(["d1", "d2", "d3"], grades) == pytest.approx((1 + 2 / 3) / 2)


def test_ap_perfect_ranking():
    grades = {"d1": 1, "d2": 1}
    assert average_precision(["d1", "d2", "d3"], grades) == 1.0


def test_ap_no_relevant_docs():
    assert average_precision(["d1", "d2"], {"d9": 0}) == 0.0
    assert average_precision(["d1"], {}) == 0.0


def test_p_at_k_examples():
    grades = {f"r{i}": 1 for i in range(5)}
    run = [f"r{i}" for i in range(5)] + [f"n{i}" for i in range(15)]
    assert precision_at_k(run, grades, 20) == 0.25
    ten = {f"r{i}": 1 for i in range(10)}
    assert precision_at_k([f"r{i}" for i in range(10)], ten, 20) == 0.5
    assert precision_at_k([], grades, 20) == 0.0


def test_ndcg_ideal_is_one():
    grades = {"d1": 1, "d2": 1, "d3": 1}
    assert ndcg_at_k(["d1", "d2", "d3"], grades, 20) == 1.0


def test_ndcg_worked_example():
    # hits at ranks 1 and 3 of 3 relevant: DCG = 1 + 0.5, IDCG ≈ 2.1309
    grades = {"a": 1, "b": 1, "c": 1}
    ranking = ["a", "x", "b", "y"]
    idcg = 1.0 + 1.0 / math.log2(3) + 0.5
    assert ndcg_at_k(ranking, grades, 20) == pytest.approx(1.5 / idcg)
    assert ndcg_at_k(ranking, grades, 20) == pytest.approx(0.7039, abs=1e-4)


def test_ndcg_no_relevant():
    assert ndcg_at_k(["d1"], {"d1": 0}, 20) == 0.0


def test_metrics_reject_bad_k():
    with pytest.raises(ValueError):
        precision_at_k([], {}, 0)
    with pytest.raises(ValueError):
        ndcg_at_k([], {}, -1)


# ---------------------------------------------------------------------------
# Oracle equivalence on randomized rankings


@settings(max_examples=200, deadline=None)
@given(
    st.permutations([f"d{i}" for i in range(12)]),
    st.sets(st.sampled_from([f"d{i}" for i in range(15)]), max_size=8),
    st.integers(min_value=1, max_value=15),
)
def test_binary_metrics_match_reference(ranking, relevant, k):
    grades = {d: 1 for d in relevant}
    assert average_precision(ranking, grades) == pytest.approx(
        ref_ap(ranking, relevant), abs=1e-12
    )
    assert precision_at_k(ranking, grades, k) == pytest.approx(
        ref_p_at_k(ranking, relevant, k), abs=1e-12
    )
    assert ndcg_at_k(ranking, grades, k) == pytest.approx(
        ref_ndcg(ranking, grades, k), abs=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(
    st.permutations([f"d{i}" for i in range(10)]),
    st.dictionaries(
        st.sampled_from([f"d{i}" for i in range(10)]),
        st.integers(min_value=0, max_value=4),
        max_size=10,
    ),
)
def test_graded_ndcg_matches_reference(ranking, grades):
    assert ndcg_at_k(ranking, grades, 5) == pytest.approx(
        ref_ndcg(ranking, grades, 5), abs=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(
    st.permutations([f"d{i}" for i in range(8)]),
    st.sets(st.sampled_from([f"d{i}" for i in range(8)]), min_size=1, max_size=6),
)
def test_metric_ranges_and_relabel_invariance(ranking, relevant):
    grades = {d: 1 for d in relevant}
    ap = average_precision(ranking, grades)
    p = precision_at_k(ranking, grades, 5)
    nd = ndcg_at_k(ranking, grades, 5)
    for v in (ap, p, nd):
        assert 0.0 <= v <= 1.0
    # bijective rename of run and qrels together
    rename = {d: f"X{d}" for d in set(ranking) | relevant}
    ranking2 = [rename[d] for d in ranking]
    grades2 = {rename[d]: 1 for d in relevant}
    assert average_precision(ranking2, grades2) == ap
    assert ndcg_at_k(ranking2, grades2, 5) == nd


def test_swapping_relevant_upward_never_hurts():
    grades = {"r": 1}
    base = ["n1", "n2", "r", "n3"]
    better = ["n1", "r", "n2", "n3"]
    assert average_precision(better, grades) >= average_precision(base, grades)
    assert ndcg_at_k(better, grades, 4) >= ndcg_at_k(base, grades, 4)
    assert precision_at_k(better, grades, 2) >= precision_at_k(base, grades, 2)


# ---------------------------------------------------------------------------
# File parsing


def test_read_qrels(tmp_path):
    p = tmp_path / "qrels.txt"
    p.write_text("q1 0 d1 1\nq1 0 d2 0\nq2 0 d1 2\n", encoding="utf-8")
    qrels = read_qrels(p)
    assert qrels == {"q1": {"d1": 1, "d2": 0}, "q2": {"d1": 2}}


def test_read_qrels_rejects_duplicates_with_line(tmp_path):
    p = tmp_path / "qrels.txt"
    p.write_text("q1 0 d1 1\nq1 0 d1 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="qrels.txt:2"):
        read_qrels(p)


def test_read_qrels_rejects_negative_grade(tmp_path):
    p = tmp_path / "qrels.txt"
    p.write_text("q1 0 d1 -1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="negative"):
        read_qrels(p)


def test_read_run_round_trip(tmp_path):
    run = {"q1": [("d2", 0.9), ("d1", 0.5)], "q2": [("d3", 0.1)]}
    p = tmp_path / "out.run"
    write_run(p, run, tag="sys")
    back = read_run(p)
    assert list(back) == ["q1", "q2"]
    assert back["q1"] == [("d2", 0.9), ("d1", 0.5)]


@pytest.mark.parametrize("tag", ["", "my run", "run\t1", " run"])
def test_write_run_rejects_a_tag_that_changes_the_field_count(tmp_path, tag):
    # read_run expects six whitespace-separated fields per line
    p = tmp_path / "out.run"
    with pytest.raises(ValueError, match="is empty or holds whitespace"):
        write_run(p, {"q1": [("d1", 0.5)]}, tag=tag)
    assert not p.exists()


def test_write_run_keeps_near_ties_readable(tmp_path):
    # equal at 6 decimals, unequal as floats: d2 ranks first on score alone
    ranked = [("d2", 0.5000002), ("d1", 0.5000001)]
    p = tmp_path / "near.run"
    write_run(p, {"q1": ranked}, tag="sys")
    assert read_run(p)["q1"] == ranked


def test_read_run_validates_rank_sequence(tmp_path):
    p = tmp_path / "bad.run"
    p.write_text("q1 Q0 d1 1 0.9 t\nq1 Q0 d2 3 0.5 t\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.run:2"):
        read_run(p)


def test_read_run_validates_score_order(tmp_path):
    p = tmp_path / "bad.run"
    p.write_text("q1 Q0 d1 1 0.5 t\nq1 Q0 d2 2 0.9 t\n", encoding="utf-8")
    with pytest.raises(ValueError, match="increases"):
        read_run(p)


def test_read_run_validates_tie_order_and_duplicates(tmp_path):
    p = tmp_path / "bad.run"
    p.write_text("q1 Q0 dz 1 0.5 t\nq1 Q0 da 2 0.5 t\n", encoding="utf-8")
    with pytest.raises(ValueError, match="tied"):
        read_run(p)
    p.write_text("q1 Q0 d1 1 0.5 t\nq1 Q0 d1 2 0.4 t\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        read_run(p)


def test_read_run_rejects_wrong_field_count(tmp_path):
    p = tmp_path / "bad.run"
    p.write_text("q1 Q0 d1 1 0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="6 fields"):
        read_run(p)


# ---------------------------------------------------------------------------
# evaluate / evaluate_run


def three_query_fixture():
    run = {
        "q1": [("d1", 0.9), ("d2", 0.8), ("d3", 0.7)],
        "q2": [("d5", 0.9), ("d4", 0.2)],
        "q3": [("d9", 0.3)],
    }
    qrels = {
        "q1": {"d1": 1, "d3": 1},
        "q2": {"d4": 1},
        "q3": {"d8": 1},
    }
    return run, qrels


def test_evaluate_three_query_fixture_matches_reference():
    run, qrels = three_query_fixture()
    report = evaluate(run, qrels, k=2)
    assert report.query_count == 3
    for qid in run:
        ranked = [d for d, _ in run[qid]]
        relevant = {d for d, g in qrels[qid].items() if g >= 1}
        assert report.per_query[qid]["ap"] == pytest.approx(
            ref_ap(ranked, relevant), abs=1e-9
        )
        assert report.per_query[qid]["p_at_k"] == pytest.approx(
            ref_p_at_k(ranked, relevant, 2), abs=1e-9
        )
        assert report.per_query[qid]["ndcg_at_k"] == pytest.approx(
            ref_ndcg(ranked, qrels[qid], 2), abs=1e-9
        )
    expected_mean = sum(
        ref_ap([d for d, _ in run[q]], {d for d, g in qrels[q].items() if g >= 1})
        for q in run
    ) / 3
    assert report.mean_ap == pytest.approx(expected_mean, abs=1e-9)


def test_evaluate_run_only_queries_warned():
    run = {"q1": [("d1", 0.5)], "qX": [("d1", 0.5)]}
    qrels = {"q1": {"d1": 1}}
    report = evaluate(run, qrels)
    assert report.query_count == 1
    assert any("qX" in w for w in report.warnings)


def test_evaluate_skip_empty():
    run = {"q1": [("d1", 0.5)], "q2": [("d2", 0.5)]}
    qrels = {"q1": {"d1": 1}, "q2": {"d9": 0}}
    full = evaluate(run, qrels)
    assert full.query_count == 2
    assert full.mean_ap == pytest.approx(0.5)
    skipped = evaluate(run, qrels, skip_empty=True)
    assert skipped.query_count == 1
    assert skipped.mean_ap == pytest.approx(1.0)


def test_evaluate_empty_run_file(tmp_path):
    run_path = tmp_path / "empty.run"
    run_path.write_text("", encoding="utf-8")
    qrels_path = tmp_path / "qrels.txt"
    qrels_path.write_text("q1 0 d1 1\n", encoding="utf-8")
    report = evaluate_run(run_path, qrels_path)
    assert report.query_count == 0
    assert report.mean_ap == 0.0
    assert report.warnings


def test_evaluate_ideal_run_is_perfect(tmp_path):
    qrels_path = tmp_path / "qrels.txt"
    qrels_path.write_text("q1 0 d1 1\nq1 0 d2 1\n", encoding="utf-8")
    run_path = tmp_path / "ideal.run"
    write_run(run_path, {"q1": [("d1", 0.9), ("d2", 0.8)]}, tag="ideal")
    report = evaluate_run(run_path, qrels_path)
    assert report.per_query["q1"]["ndcg_at_k"] == 1.0
    assert report.per_query["q1"]["ap"] == 1.0


def test_format_metric_table():
    run, qrels = three_query_fixture()
    report = evaluate(run, qrels, k=20)
    table = format_metric_table([("teacher", report), ("student", report)], k=20)
    lines = table.strip().split("\n")
    assert len(lines) == 4
    assert "MAP" in lines[0] and "nDCG@20" in lines[0]
    assert f"{report.mean_ap:.4f}" in lines[2]
