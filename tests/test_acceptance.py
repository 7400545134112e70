"""End-to-end acceptance gate: one printed PASS/FAIL verdict per criterion.

Each criterion is a single test carrying an `acceptance` marker; the
conftest hook prints its verdict line in the terminal summary, so the
lines survive output capture and show up in piped logs. Runtime ceilings
are asserted where a check is only meaningful under them; all randomness
is seeded, so every verdict is reproducible.
"""

import json
import math
import time

import numpy as np
import pytest

from mimicrank.cli import main
from mimicrank.corpus import Document, PairSet, annotate_queries, build_index, term_index_counts
from mimicrank.distill import mimic_train, model_labels
from mimicrank.evaluation import (
    average_precision,
    evaluate,
    ndcg_at_k,
    precision_at_k,
)
from mimicrank.pipeline import RunConfig, bm25_pools, bm25_rankings, model_run, run_pipeline
from mimicrank.private import draw_uniform, laplace_sample
from mimicrank.ranker import (RankModelConfig, _pair_columns, compute_loss_and_grads,
                             init_params, pool_scorer, train)
from mimicrank.toydata import mini_collection, synthetic_collection, write_collection

from gradcheck import finite_difference_check


MODEL_SIZES_CONF = """\
teacher.embedding_dim = 8
teacher.hidden_layers = 1
teacher.hidden_size = 16
teacher.dropout_keep = 1.0
teacher.learning_rate = 5e-3
teacher.batch_size = 64
student.embedding_dim = 6
student.hidden_layers = 1
student.hidden_size = 8
student.dropout_keep = 1.0
student.learning_rate = 5e-3
student.batch_size = 64
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    write_collection(mini_collection(), base)
    (base / "models.conf").write_text(MODEL_SIZES_CONF, encoding="utf-8")
    return base


TINY_TEACHER = RankModelConfig(embedding_dim=8, hidden_layers=1, hidden_size=16,
                               dropout_keep=1.0, learning_rate=5e-3, batch_size=64)
TINY_STUDENT = RankModelConfig(embedding_dim=6, hidden_layers=1, hidden_size=8,
                               dropout_keep=1.0, learning_rate=5e-3, batch_size=64)


def small_config(workspace, out, **kwargs):
    defaults = dict(
        corpus=workspace / "corpus.jsonl",
        queries_train=workspace / "queries_train.tsv",
        queries_unlabeled=workspace / "queries_unlabeled.tsv",
        queries_eval=workspace / "queries_eval.tsv",
        qrels=workspace / "qrels.txt",
        out=out, seed=11, teacher=TINY_TEACHER, student=TINY_STUDENT,
        pool_size=20, pairs_per_query=10, teacher_epochs=3, student_epochs=3,
        rank_pool_size=30, rank_cutoff=30, n_partitions=3, noise_scale=0.05,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


# ---------------------------------------------------------------------------
# 1. Analytic gradients match central finite differences


@pytest.mark.acceptance(1, "gradient check")
def test_criterion_1_gradient_check():
    started = time.monotonic()
    rng = np.random.default_rng(20260819)
    letters = list("abcdefghij")
    total_checked = 0
    for case in range(20):
        emb_dim = int(rng.integers(3, 9))
        hidden = int(rng.integers(4, 10))
        n_layers = int(rng.integers(1, 4))
        docs = [
            Document(f"d{i}", " ".join(rng.choice(letters, size=7)))
            for i in range(int(rng.integers(6, 11)))
        ]
        index = build_index(docs)
        cfg = RankModelConfig(embedding_dim=emb_dim, hidden_layers=n_layers,
                              hidden_size=hidden, dropout_keep=1.0,
                              learning_rate=1e-3, batch_size=4)
        params = init_params(cfg, index.vocabulary, index,
                             seed=int(rng.integers(1 << 30)))
        # zero-initialized biases park dead units exactly on the ReLU kink,
        # where the subgradient and a central difference legitimately differ;
        # nudge them off so every sampled coordinate is differentiable
        for layer in params.layers:
            layer.bias += rng.normal(0.0, 0.05, size=layer.bias.shape)
        query_rows, doc1, doc2 = [], [], []
        for _ in range(int(rng.integers(3, 6))):
            d1, d2 = (int(x) for x in
                      rng.choice(index.doc_count, size=2, replace=False))
            doc1.append(d1)
            doc2.append(d2)
            query_rows.append(term_index_counts(
                index.vocabulary, [str(t) for t in rng.choice(letters, size=3)]))
        n = len(query_rows)
        batch = _pair_columns(
            PairSet(index, [f"q{k}" for k in range(n)], query_rows, np.arange(n), doc1,
                    doc2, 1.0 + np.arange(n), np.full(n, 0.5)),
            len(index.vocabulary))

        loss, grads = compute_loss_and_grads(params, batch)
        assert loss > 0.0, f"case {case}: inactive hinge, nothing to check"
        plist = [params.embedding, params.term_weights] + [
            a for layer in params.layers for a in (layer.weights, layer.bias)
        ]
        glist = [grads["d_embedding"], grads["d_term_weights"]] + [
            a for w, b in zip(grads["d_layer_weights"], grads["d_layer_biases"])
            for a in (w, b)
        ]
        report = finite_difference_check(
            lambda: compute_loss_and_grads(params, batch)[0],
            plist, glist, h=1e-5, tolerance=1e-4,
            max_coords_per_param=12, seed=case,
        )
        assert report.max_rel_error < 1e-4, f"case {case}: {report}"
        # each parameter array contributed sampled coordinates
        assert report.coords_checked >= len(plist), case
        total_checked += report.coords_checked
    assert total_checked >= 20
    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# 2. Metrics agree with an independent brute-force evaluation


def _ref_ap(ranked, relevant):
    if not relevant:
        return 0.0
    hits, total = 0, 0.0
    for position, doc in enumerate(ranked, start=1):
        if doc in relevant:
            hits += 1
            total += hits / position
    return total / len(relevant)


def _ref_p_at_k(ranked, relevant, k):
    return sum(1 for doc in ranked[:k] if doc in relevant) / k


def _ref_ndcg(ranked, grades, k):
    gains = [grades.get(doc, 0) for doc in ranked[:k]]
    dcg = sum(g / math.log2(i + 2) for i, g in enumerate(gains) if g > 0)
    best = sorted((g for g in grades.values() if g > 0), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 2) for i, g in enumerate(best))
    return dcg / idcg if idcg else 0.0


@pytest.mark.acceptance(2, "metric oracle")
def test_criterion_2_metric_oracle():
    fixture = {
        # two relevant docs retrieved at ranks 1 and 3: AP = (1 + 2/3)/2
        "q1": (["a", "x", "b", "y"], {"a": 1, "b": 1}),
        # three relevant, hits at ranks 1 and 3: nDCG = 1.5 / 2.1309...
        "q2": (["a", "x", "b", "y"], {"a": 1, "b": 1, "c": 1}),
        # graded judgments with a miss inside the ranking
        "q3": (["g2", "g1", "z", "g3"], {"g1": 2, "g2": 1, "g3": 1}),
    }
    for qid, (ranked, grades) in fixture.items():
        relevant = {d for d, g in grades.items() if g >= 1}
        assert abs(average_precision(ranked, grades)
                   - _ref_ap(ranked, relevant)) <= 1e-9, qid
        assert abs(precision_at_k(ranked, grades, 20)
                   - _ref_p_at_k(ranked, relevant, 20)) <= 1e-9, qid
        assert abs(ndcg_at_k(ranked, grades, 20)
                   - _ref_ndcg(ranked, grades, 20)) <= 1e-9, qid

    # the two worked constants
    assert abs(average_precision(*fixture["q1"]) - 0.8333) <= 1e-4
    assert abs(ndcg_at_k(fixture["q2"][0], fixture["q2"][1], 20) - 0.7039) <= 1e-4

    run = {qid: [(doc, float(len(ranked) - i)) for i, doc in enumerate(ranked)]
           for qid, (ranked, _) in fixture.items()}
    qrels = {qid: grades for qid, (_, grades) in fixture.items()}
    report = evaluate(run, qrels, k=20)
    assert report.query_count == 3
    refs = {
        qid: (_ref_ap(ranked, {d for d, g in grades.items() if g >= 1}),
              _ref_p_at_k(ranked, {d for d, g in grades.items() if g >= 1}, 20),
              _ref_ndcg(ranked, grades, 20))
        for qid, (ranked, grades) in fixture.items()
    }
    assert abs(report.mean_ap - sum(r[0] for r in refs.values()) / 3) <= 1e-9
    assert abs(report.mean_p_at_k - sum(r[1] for r in refs.values()) / 3) <= 1e-9
    assert abs(report.mean_ndcg_at_k - sum(r[2] for r in refs.values()) / 3) <= 1e-9


# ---------------------------------------------------------------------------
# 3. Laplace sampler moments


@pytest.mark.acceptance(3, "laplace mechanism")
def test_criterion_3_laplace_mechanism():
    n = 100_000
    for scale in (0.05, 1.0):
        rng = np.random.default_rng(987_654 + int(scale * 100))
        samples = np.fromiter(
            (laplace_sample(scale, draw_uniform(rng)) for _ in range(n)),
            dtype=np.float64, count=n,
        )
        target_var = 2.0 * scale * scale
        assert abs(samples.mean()) <= 0.02 * scale, scale
        assert abs(samples.var() - target_var) <= 0.05 * target_var, scale


# ---------------------------------------------------------------------------
# 4. Distilled student tracks the teacher at desk scale


@pytest.mark.acceptance(4, "distillation fidelity")
def test_criterion_4_distillation_fidelity():
    started = time.monotonic()
    coll = synthetic_collection(n_unlabeled=400, doc_len_range=(20, 81),
                                topic_fraction=(0.15, 1.0))
    assert len(coll.documents) == 2000
    assert len(coll.train_queries) == 200
    index = build_index(coll.documents)
    instances, _ = annotate_queries(index, coll.train_queries, pool_size=50,
                                    pairs_per_query=20, seed=101)
    teacher_cfg = RankModelConfig(embedding_dim=24, hidden_layers=1,
                                  hidden_size=24, dropout_keep=1.0,
                                  learning_rate=3e-3, batch_size=64)
    teacher = init_params(teacher_cfg, index.vocabulary, index, seed=102)
    train(teacher, teacher_cfg, instances, epochs=20, seed=103)
    student_cfg = RankModelConfig(embedding_dim=48, hidden_layers=1,
                                  hidden_size=48, dropout_keep=1.0,
                                  learning_rate=3e-3, batch_size=64)
    result = mimic_train(model_labels(pool_scorer(teacher, index)), student_cfg,
                         coll.unlabeled_queries, index,
                         epochs=25, seed=104, pool_size=50, pairs_per_query=200)

    assert result.fidelity >= 0.85, result.fidelity

    pools = bm25_pools(bm25_rankings(index, coll.eval_queries, 100), 100)
    teacher_run = model_run(index, coll.eval_queries, pool_scorer(teacher, index), pools, 30)
    student_run = model_run(index, coll.eval_queries, pool_scorer(result.student, index),
                            pools, 30)
    teacher_map = evaluate(teacher_run, coll.qrels).mean_ap
    student_map = evaluate(student_run, coll.qrels).mean_ap
    assert teacher_map > 0.0
    assert abs(student_map - teacher_map) / teacher_map <= 0.10, \
        (teacher_map, student_map)
    assert time.monotonic() - started < 600.0


# ---------------------------------------------------------------------------
# 5. Single-teacher, zero-noise private path reduces to plain distillation


@pytest.mark.acceptance(5, "pate reduction")
def test_criterion_5_pate_reduction(workspace, tmp_path):
    started = time.monotonic()
    plain_out = tmp_path / "plain"
    private_out = tmp_path / "private"
    run_pipeline(small_config(workspace, plain_out), "distill")
    run_pipeline(small_config(workspace, private_out,
                              n_partitions=1, noise_scale=0.0), "pate")

    assert (plain_out / "checkpoints" / "student.ckpt").read_bytes() == \
        (private_out / "checkpoints" / "student.ckpt").read_bytes()
    assert (plain_out / "checkpoints" / "teacher.ckpt").read_bytes() == \
        (private_out / "checkpoints" / "ensemble" / "teacher_00.ckpt").read_bytes()
    assert (plain_out / "runs" / "student.run").read_bytes() == \
        (private_out / "runs" / "student.run").read_bytes()

    plain_metrics = json.loads((plain_out / "metrics.json").read_text())
    private_metrics = json.loads((private_out / "metrics.json").read_text())
    assert plain_metrics["student"] == private_metrics["student"]
    plain_row = [r for r in (plain_out / "metrics.txt").read_text().splitlines()
                 if r.startswith("student")]
    private_row = [r for r in
                   (private_out / "metrics.txt").read_text().splitlines()
                   if r.startswith("student")]
    assert plain_row == private_row
    assert time.monotonic() - started < 600.0


# ---------------------------------------------------------------------------
# 6. Ensemble run reports all four systems and exact zero-noise agreement


@pytest.mark.acceptance(6, "noise degradation report")
def test_criterion_6_noise_degradation_report(workspace, tmp_path):
    out = tmp_path / "ensemble3"
    report = run_pipeline(small_config(workspace, out), "pate")

    table_rows = (out / "metrics.txt").read_text().splitlines()[2:]
    assert [" ".join(row.split()[:-3]) for row in table_rows] == [
        "teachers avg", "aggregate non-noisy", "aggregate noisy", "student"]
    assert report["agreement_nonnoisy_vs_mean"] == 1.0
    assert "noisy_vs_nonnoisy" in report
    saved = json.loads((out / "report.json").read_text())
    assert saved["agreement_nonnoisy_vs_mean"] == 1.0


# ---------------------------------------------------------------------------
# 7. Reruns are byte-identical in every mode


def _tree_bytes(root, names):
    files = {}
    for name in names:
        path = root / name
        if path.is_dir():
            for sub in sorted(path.rglob("*")):
                if sub.is_file():
                    files[str(sub.relative_to(root))] = sub.read_bytes()
        else:
            files[name] = path.read_bytes()
    return files


@pytest.mark.acceptance(7, "determinism")
def test_criterion_7_determinism(workspace, tmp_path):
    compared = ("checkpoints", "runs", "metrics.txt", "metrics.json")
    for mode in ("weak", "supervised", "distill", "pate"):
        first = tmp_path / f"{mode}_a" / "run"
        second = tmp_path / f"{mode}_b" / "run"
        run_pipeline(small_config(workspace, first), mode)
        run_pipeline(small_config(workspace, second), mode)
        first_files = _tree_bytes(first, compared)
        second_files = _tree_bytes(second, compared)
        assert first_files.keys() == second_files.keys(), mode
        for name, payload in first_files.items():
            assert payload == second_files[name], (mode, name)
        assert any(name.startswith("checkpoints") for name in first_files)
        assert any(name.startswith("runs") for name in first_files)


# ---------------------------------------------------------------------------
# 8. Student training survives deletion of the teacher shards


@pytest.mark.acceptance(8, "privacy path hygiene")
def test_criterion_8_privacy_path_hygiene(workspace, tmp_path):
    out = tmp_path / "pate"
    run_pipeline(small_config(workspace, out), "pate")

    shards = sorted((out / "shards").glob("shard_*.tsv"))
    assert shards
    for shard in shards:
        shard.unlink()
    assert not list((out / "shards").glob("shard_*.tsv"))

    redistill = tmp_path / "redistill"
    rc = main([
        "pate",
        "--index", str(out / "index.bin"),
        "--queries", str(workspace / "queries_unlabeled.tsv"),
        "--out", str(redistill),
        "--ensemble", str(out / "checkpoints" / "ensemble"),
        "--config", str(workspace / "models.conf"),
        "--student-epochs", "3",
        "--pool-size", "20",
        "--pairs-per-query", "10",
        "--seed", "11",
    ])
    assert rc == 0
    assert (redistill / "student.ckpt").is_file()
