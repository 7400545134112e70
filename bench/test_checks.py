"""Tests of the benchmark's own output checks and span bookkeeping.

    python3 -m pytest bench/test_checks.py

Each checker passes on a small hand-built correct case and fails once the
case is corrupted. The fixtures are written by hand, not by the program,
so a fault shared by the program and a checker cannot hide here.
"""

import json
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from tracer import Spans, Tracer  # noqa: E402

DOCS = {
    "d1": "apple banana apple",
    "d2": "banana cherry",
    "d3": "apple cherry cherry date",
    "d4": "date elder",
}
QUERIES = {"q1": "apple cherry", "q2": "date"}
QRELS = {"q1": {"d1": 1, "d3": 2}, "q2": {"d4": 1}}


def write_collection(tmp_path, docs=DOCS, queries=QUERIES, qrels=QRELS):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"id": d, "text": t}) + "\n"
                              for d, t in docs.items()), encoding="utf-8")
    qfile = tmp_path / "queries.tsv"
    qfile.write_text("".join(f"{q}\t{t}\n" for q, t in queries.items()),
                     encoding="utf-8")
    qrels_file = tmp_path / "qrels.txt"
    qrels_file.write_text("".join(f"{q} 0 {d} {g}\n" for q, grades in qrels.items()
                                  for d, g in grades.items()), encoding="utf-8")
    return checks.Collection(corpus, [qfile], qrels_file)


def hand_bm25(tf, dl, avgdl, n_docs, df):
    idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
    return idf * tf * 2.2 / (tf + 1.2 * (0.25 + 0.75 * dl / avgdl))


def test_bm25_matches_hand_computation(tmp_path):
    coll = write_collection(tmp_path)
    avgdl = (3 + 2 + 4 + 2) / 4
    want_d3 = hand_bm25(1, 4, avgdl, 4, 2) + hand_bm25(2, 4, avgdl, 4, 2)
    want_d1 = hand_bm25(2, 3, avgdl, 4, 2)
    scores = coll.bm25("q1")
    assert scores[coll.doc_pos["d3"]] == pytest.approx(want_d3, abs=1e-12)
    assert scores[coll.doc_pos["d1"]] == pytest.approx(want_d1, abs=1e-12)
    assert scores[coll.doc_pos["d4"]] == 0.0
    assert [coll.doc_ids[d] for d in coll.ranking("q1", 10)] == ["d3", "d1", "d2"]


def printed(x):
    return float(f"{x:.6f}")


def bm25_run_of(coll, qids, k):
    return {q: [(coll.doc_ids[d], r, printed(coll.bm25(q)[d]))
                for r, d in enumerate(coll.ranking(q, k), start=1)] for q in qids}


def test_check_retrieval(tmp_path):
    coll = write_collection(tmp_path)

    def search(terms, k):
        qid = next(q for q, t in coll.queries.items() if tuple(t) == terms)
        top = coll.ranking(qid, k)
        return list(top), list(coll.bm25(qid)[top])

    run = bm25_run_of(coll, ["q1", "q2"], 10)
    assert checks.check_retrieval(coll, search, ["q1", "q2"], 10, run) == []

    def perturbed(terms, k):
        docs, scores = search(terms, k)
        return docs, [scores[0] + 1e-6] + scores[1:]

    assert checks.check_retrieval(coll, perturbed, ["q1"], 10, {})
    run["q1"][0] = (run["q1"][0][0], 1, run["q1"][0][2] + 2e-6)
    assert checks.check_retrieval(coll, search, [], 10, run)


def test_check_annotations(tmp_path):
    coll = write_collection(tmp_path)
    s = coll.bm25("q1")
    pos = coll.doc_pos
    pairs = [("q1", "d3", "d1", printed(s[pos["d3"]]), printed(s[pos["d1"]])),
             ("q1", "d2", "d3", printed(s[pos["d2"]]), printed(s[pos["d3"]]))]
    assert checks.check_annotations(coll, pairs, 3, 2, 0) == []
    wrong_score = [pairs[0][:3] + (pairs[0][3] + 1e-5, pairs[0][4])]
    assert checks.check_annotations(coll, wrong_score, 3, 2, 0)
    assert checks.check_annotations(coll, pairs + [pairs[0]], 3, 5, 0)  # repeated
    assert checks.check_annotations(coll, pairs, 3, 1, 0)  # over the quota
    assert checks.check_annotations(coll, pairs, 1, 2, 0)  # outside the pool


def write_checkpoint(path, vocabulary, embedding, term_weights, layers):
    """The container layout: magic, uint32 version, uint64 header length,
    JSON header, little-endian float64 payloads in manifest order."""
    arrays = [("embedding", embedding), ("term_weights", term_weights)]
    for i, (w, b, _) in enumerate(layers):
        arrays += [(f"layer_weights_{i:02d}", w), (f"layer_bias_{i:02d}", b)]
    header = json.dumps({
        "meta": {"kind": "rank-model", "vocabulary": vocabulary,
                 "activations": [act for _, _, act in layers]},
        "arrays": [{"name": n, "shape": list(np.shape(a)), "dtype": "f8"}
                   for n, a in arrays],
    }).encode()
    payload = b"".join(np.asarray(a, dtype="<f8").tobytes() for _, a in arrays)
    Path(path).write_bytes(b"MRMD" + struct.pack("<IQ", 1, len(header))
                           + header + payload)
    return checks.Checkpoint(path)


def tiny_model(path):
    # one-dimensional embeddings, so the forward is arithmetic by hand:
    # score = tanh(0.5 * relu(q + d) + 0.1) with q, d the weighted bags of
    # embeddings
    vocab = ["apple", "banana", "cherry", "date", "elder"]
    embedding = np.array([[1.0], [2.0], [-1.0], [0.5], [0.0]])
    weights = np.array([0.5, 1.0, 0.25, 1.0, 1.0])
    layers = [(np.array([[1.0], [1.0]]), np.array([0.0]), "relu"),
              (np.array([[0.5]]), np.array([0.1]), "tanh")]
    return write_checkpoint(path, vocab, embedding, weights, layers)


def test_check_scores(tmp_path):
    coll = write_collection(tmp_path)
    model = tiny_model(tmp_path / "m.ckpt")
    q1 = 0.5 * 1.0 + 0.25 * -1.0  # apple + cherry
    d1 = 2 * 0.5 * 1.0 + 1.0 * 2.0  # apple apple banana
    d3 = 0.5 + 2 * 0.25 * -1.0 + 1.0 * 0.5  # apple cherry cherry date
    want = {"d1": math.tanh(0.5 * max(q1 + d1, 0) + 0.1),
            "d3": math.tanh(0.5 * max(q1 + d3, 0) + 0.1)}
    entries = [("q1", d, printed(s)) for d, s in want.items()]
    assert checks.check_scores(coll, [model], entries) == []
    assert checks.check_scores(coll, [model, model], entries) == []  # a mean
    bad = entries[:1] + [("q1", "d3", entries[1][2] + 2e-6)]
    assert checks.check_scores(coll, [model], bad)


def test_check_noise(tmp_path):
    words = ["apple", "banana", "cherry", "date", "elder"]
    rng = np.random.default_rng(5)
    docs = {f"d{i:03d}": " ".join(rng.choice(words, size=6)) for i in range(80)}
    queries = {"q1": "apple cherry", "q2": "date", "q3": "banana elder"}
    coll = write_collection(tmp_path, docs, queries, {})
    teachers = [tiny_model(tmp_path / f"t{i}.ckpt") for i in range(3)]
    keys = [(q, d) for q in queries for d in docs]
    clean = teachers[0].scores(coll, keys)
    b = 0.05
    noise = rng.laplace(0.0, b, size=(len(keys), 3)).mean(axis=1)
    noisy = [(q, d, printed(c + e)) for (q, d), c, e in zip(keys, clean, noise)]
    assert checks.check_noise(coll, teachers, noisy, b) == []
    quiet = [(q, d, printed(c)) for (q, d), c in zip(keys, clean)]
    assert checks.check_noise(coll, teachers, quiet, b)
    assert checks.check_noise(coll, teachers, noisy[:50], b)  # too few to test


def test_check_run(tmp_path):
    coll = write_collection(tmp_path)
    run = bm25_run_of(coll, ["q1", "q2"], 10)
    assert checks.check_run(coll, run, ["q1", "q2"], 10, 10) == []
    swapped = dict(run)
    (d_a, _, s_a), (d_b, _, s_b) = run["q1"][:2]
    swapped["q1"] = [(d_a, 2, s_a), (d_b, 1, s_b)] + run["q1"][2:]
    assert checks.check_run(coll, swapped, ["q1", "q2"], 10, 10)
    reordered = dict(run, q1=[(d_b, 1, s_b), (d_a, 2, s_a)] + run["q1"][2:])
    assert checks.check_run(coll, reordered, ["q1", "q2"], 10, 10)
    assert checks.check_run(coll, run, ["q1", "q2"], 2, 10)  # over the cutoff
    assert checks.check_run(coll, run, ["q1", "q2"], 10, 1)  # outside the pool


def test_rank_metrics_by_hand():
    ap, p, ndcg = checks.rank_metrics(["d1", "d2", "d3"], {"d1": 1, "d3": 2}, 20)
    assert ap == pytest.approx((1 / 1 + 2 / 3) / 2)
    assert p == pytest.approx(2 / 20)
    assert ndcg == pytest.approx((1 + 2 / 2) / (2 + 1 / math.log2(3)))


def test_check_metrics(tmp_path):
    coll = write_collection(tmp_path)
    run = {"q1": [("d1", 1, 0.9), ("d2", 2, 0.8), ("d3", 3, 0.7)],
           "q2": [("d4", 1, 0.5)]}
    ap1 = (1 / 1 + 2 / 3) / 2
    reported = {"map": (ap1 + 1.0) / 2, "p_at_k": (2 / 20 + 1 / 20) / 2,
                "ndcg_at_k": ((1 + 2 / 2) / (2 + 1 / math.log2(3)) + 1.0) / 2,
                "query_count": 2}
    assert checks.check_metrics(run, coll.qrels, reported, 20) == []
    assert checks.check_metrics(run, coll.qrels, dict(reported, map=ap1), 20)


def test_check_determinism(tmp_path):
    dirs = []
    for name in ("rep00", "rep01"):
        d = tmp_path / name
        (d / "checkpoints" / "ensemble").mkdir(parents=True)
        (d / "runs").mkdir()
        (d / "checkpoints" / "ensemble" / "teacher_00.ckpt").write_bytes(b"\x00\x01\x02")
        (d / "runs" / "student.run").write_text("q1 Q0 d1 1 0.5 student\n")
        (d / "metrics.json").write_text("{}\n")
        dirs.append(d)
    assert checks.check_determinism(dirs) == []
    assert checks.check_determinism(dirs[:1])
    (dirs[1] / "checkpoints" / "ensemble" / "teacher_00.ckpt").write_bytes(b"\x00\x01\x03")
    assert checks.check_determinism(dirs)


def test_spans_self_time_and_roots(tmp_path):
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10000)))

    def outer_fn():
        inner()
        inner()
        return sum(range(20000))

    outer = tracer.wrap("outer", outer_fn)
    outer()
    outer()
    tracer.save(tmp_path / "spans.npz")
    spans = Spans.load(tmp_path / "spans.npz")
    outers, inners = spans.ids("outer"), spans.ids("inner")
    assert len(outers) == 2 and len(inners) == 4
    assert all(spans.name_of(spans.parent[i]) == "outer" for i in inners)
    assert sorted(set(spans.root[inners].tolist())) == outers.tolist()
    for o in outers:
        children = inners[spans.parent[inners] == o]
        assert spans.self_time[o] == pytest.approx(
            spans.duration[o] - spans.duration[children].sum(), abs=1e-12)
    assert np.allclose(spans.self_time[inners], spans.duration[inners])


def test_end_to_end_are_medians_over_runs_at_reference_speed(tmp_path):
    import calibrate
    import metrics

    tracer = Tracer()

    def counted(name, key, value):
        def around(fn, args, kwargs, count):
            count(key, value)
            return fn(*args, **kwargs)
        return tracer.wrap(name, lambda: sum(range(5000)), around)

    def busy(name, n):
        return tracer.wrap(name, lambda: sum(range(n)))

    setup = [busy("corpus.read_corpus", 2000), busy("corpus.save_index", 2000)]
    stages = [counted("corpus.annotate_queries", "pairs_emitted", 10),
              counted("ranker.train", "pair_epochs", 30),
              counted("corpus.annotate_pools", "pool_docs", 40),
              counted("pipeline.model_run", "docs", 50)]
    skip = {"skip": None}

    def one_run():
        for stage in setup + stages:
            if stage is not skip["skip"]:
                stage()

    run = tracer.wrap("pipeline.run_pipeline", one_run)
    machine = [busy("calibrate.run", n) for n in (10000, 30000, 20000, 40000)]
    machine[0]()
    for m in machine[1:]:
        run()
        m()
    tracer.save(tmp_path / "spans.npz")
    spans = Spans.load(tmp_path / "spans.npz")
    roots = metrics.run_roots(spans)
    assert len(roots) == 3
    cal = spans.duration[spans.ids("calibrate.run")]
    factors = (cal[:-1] + cal[1:]) / 2 / calibrate.REFERENCE_S
    assert metrics.machine_factors(spans, roots) == pytest.approx(factors.tolist())
    values = metrics.end_to_end(spans, roots)
    for name, stage, work in [("annotate_pairs_per_s", "corpus.annotate_queries", 10),
                              ("train_pair_epochs_per_s", "ranker.train", 30),
                              ("label_docs_per_s", "corpus.annotate_pools", 40),
                              ("rank_docs_per_s", "pipeline.model_run", 50)]:
        durations = spans.duration[spans.ids(stage)]
        assert values[name] == pytest.approx(float(np.median(work * factors / durations)))
    assert values["run_s"] == pytest.approx(
        float(np.median(spans.duration[roots] / factors)))
    setups = (spans.end[spans.ids("corpus.save_index")]
              - spans.start[spans.ids("corpus.read_corpus")])
    assert values["setup_s"] == pytest.approx(float(np.median(setups / factors)))

    run()  # no calibration after this run
    tracer.save(tmp_path / "spans.npz")
    spans = Spans.load(tmp_path / "spans.npz")
    with pytest.raises(metrics.StageMissing):
        metrics.end_to_end(spans, metrics.run_roots(spans))

    skip["skip"] = stages[1]  # a run that never trains
    machine[0]()
    tracer.save(tmp_path / "spans.npz")
    spans = Spans.load(tmp_path / "spans.npz")
    roots = metrics.run_roots(spans)
    metrics.end_to_end(spans, roots[:3])
    run()
    machine[0]()
    tracer.save(tmp_path / "spans.npz")
    spans = Spans.load(tmp_path / "spans.npz")
    with pytest.raises(metrics.StageMissing):
        metrics.end_to_end(spans, metrics.run_roots(spans))
