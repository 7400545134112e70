"""Rank-quality metrics (MAP, P@k, nDCG@k) over standard run/qrels files.

Metric conventions follow the common evaluation toolkit: P@k divides by k
even for short runs, nDCG uses raw grades with a log2(rank+1) discount and
an ideal DCG cut at k, and a query without relevant judgments scores 0.
"""

import math
from dataclasses import dataclass, field

from .serialize import atomic_write


def average_precision(ranked_doc_ids, grades):
    """Mean of precision-at-hit over relevant docs, divided by total relevant.

    grades: doc_id -> integer grade; grade >= 1 counts as relevant. Queries
    with no relevant documents score 0.
    """
    total_relevant = sum(1 for g in grades.values() if g >= 1)
    if total_relevant == 0:
        return 0.0
    hits = 0
    acc = 0.0
    for rank, doc_id in enumerate(ranked_doc_ids, start=1):
        if grades.get(doc_id, 0) >= 1:
            hits += 1
            acc += hits / rank
    return acc / total_relevant


def precision_at_k(ranked_doc_ids, grades, k=20):
    """|relevant in top k| / k; short runs count as padded with non-relevant."""
    if k < 1:
        raise ValueError("k must be at least 1")
    hits = sum(1 for doc_id in ranked_doc_ids[:k] if grades.get(doc_id, 0) >= 1)
    return hits / k


def ndcg_at_k(ranked_doc_ids, grades, k=20):
    """DCG@k / ideal DCG@k with gain = raw grade, discount log2(rank+1)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    dcg = 0.0
    for rank, doc_id in enumerate(ranked_doc_ids[:k], start=1):
        g = grades.get(doc_id, 0)
        if g > 0:
            dcg += g / math.log2(rank + 1)
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)[:k]
    idcg = sum(g / math.log2(rank + 1) for rank, g in enumerate(ideal, start=1))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


# ---------------------------------------------------------------------------
# File formats


def read_qrels(path):
    """`query_id 0 doc_id grade`, whitespace-separated; grades >= 0.

    Returns dict query_id -> dict doc_id -> grade.
    """
    qrels = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            qid, _, doc_id, grade_raw = parts
            try:
                grade = int(grade_raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed grade {grade_raw!r}") from exc
            if grade < 0:
                raise ValueError(f"{path}:{lineno}: negative grade")
            per_query = qrels.setdefault(qid, {})
            if doc_id in per_query:
                raise ValueError(
                    f"{path}:{lineno}: duplicate judgment for ({qid}, {doc_id})"
                )
            per_query[doc_id] = grade
    return qrels


def read_run(path):
    """`query_id Q0 doc_id rank score tag` lines; validates rank consistency.

    Per query: ranks must be 1,2,3,... in file order, scores non-increasing,
    equal scores ordered by ascending doc_id, no duplicate doc_ids.
    Returns dict query_id -> list of (doc_id, score) in rank order.
    """
    run = {}
    last = {}  # query_id -> (rank, score, doc_id)
    seen = {}  # query_id -> set of doc_ids
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
            qid, _, doc_id, rank_raw, score_raw, _tag = parts
            try:
                rank = int(rank_raw)
                score = float(score_raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed rank or score") from exc
            prev = last.get(qid)
            expected_rank = 1 if prev is None else prev[0] + 1
            if rank != expected_rank:
                raise ValueError(
                    f"{path}:{lineno}: rank {rank} out of sequence "
                    f"(expected {expected_rank} for query {qid})"
                )
            if prev is not None:
                if score > prev[1]:
                    raise ValueError(
                        f"{path}:{lineno}: score increases within query {qid}"
                    )
                if score == prev[1] and doc_id < prev[2]:
                    raise ValueError(
                        f"{path}:{lineno}: tied scores out of doc_id order"
                    )
            docs = seen.setdefault(qid, set())
            if doc_id in docs:
                raise ValueError(
                    f"{path}:{lineno}: duplicate doc {doc_id} for query {qid}"
                )
            docs.add(doc_id)
            run.setdefault(qid, []).append((doc_id, score))
            last[qid] = (rank, score, doc_id)
    return run


def write_run(path, run, tag):
    """Write rank-ordered (doc_id, score) lists.

    Scores are printed at round-trip precision, so two printed scores are
    equal only when the floats are, and read_run accepts the doc_id order
    that rank_by_scores gave their tie.
    """
    with atomic_write(path) as fh:
        for qid, entries in run.items():
            for rank, (doc_id, score) in enumerate(entries, start=1):
                fh.write(f"{qid} Q0 {doc_id} {rank} {float(score)!r} {tag}\n")


# ---------------------------------------------------------------------------
# Evaluation


@dataclass
class MetricReport:
    per_query: dict
    mean_ap: float
    mean_p_at_k: float
    mean_ndcg_at_k: float
    query_count: int
    k: int
    warnings: list = field(default_factory=list)


def evaluate(run, qrels, k=20, skip_empty=False):
    """Metrics for every query present in both run and qrels.

    Run-only queries are skipped with a warning. skip_empty additionally
    drops queries whose judgments contain no relevant document (they
    otherwise score 0 and count toward the means).
    """
    warnings = []
    run_only = [qid for qid in run if qid not in qrels]
    if run_only:
        warnings.append(
            f"{len(run_only)} run queries missing from qrels ignored: "
            + ", ".join(sorted(run_only))
        )
    per_query = {}
    for qid, entries in run.items():
        if qid not in qrels:
            continue
        grades = qrels[qid]
        if skip_empty and not any(g >= 1 for g in grades.values()):
            warnings.append(f"query {qid} skipped: no relevant documents")
            continue
        ranked = [doc_id for doc_id, _ in entries]
        per_query[qid] = {
            "ap": average_precision(ranked, grades),
            "p_at_k": precision_at_k(ranked, grades, k),
            "ndcg_at_k": ndcg_at_k(ranked, grades, k),
        }
    n = len(per_query)
    if n == 0:
        warnings.append("no queries evaluated")
        return MetricReport({}, 0.0, 0.0, 0.0, 0, k, warnings)
    return MetricReport(
        per_query=per_query,
        mean_ap=sum(q["ap"] for q in per_query.values()) / n,
        mean_p_at_k=sum(q["p_at_k"] for q in per_query.values()) / n,
        mean_ndcg_at_k=sum(q["ndcg_at_k"] for q in per_query.values()) / n,
        query_count=n,
        k=k,
        warnings=warnings,
    )


def evaluate_run(run_path, qrels_path, k=20, skip_empty=False):
    return evaluate(read_run(run_path), read_qrels(qrels_path), k, skip_empty)


def format_metric_table(rows, k=20):
    """Fixed-width table: one row per system, columns MAP, P@k, nDCG@k."""
    header = f"{'system':<28}  {'MAP':>8}  {'P@' + str(k):>8}  {'nDCG@' + str(k):>8}"
    lines = [header, "-" * len(header)]
    for name, report in rows:
        lines.append(
            f"{name:<28}  {report.mean_ap:>8.4f}  {report.mean_p_at_k:>8.4f}  "
            f"{report.mean_ndcg_at_k:>8.4f}"
        )
    return "\n".join(lines) + "\n"
