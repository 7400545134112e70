"""Representation, scoring, hinge loss, training, and ranking behavior."""

import copy
import dataclasses
import errno
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimicrank.corpus import (
    Document,
    PairSet,
    Query,
    TrainingInstance,
    Vocabulary,
    annotate_queries,
    build_index,
    term_index_counts,
)
from mimicrank import nn, ranker, serialize
from mimicrank.pipeline import bm25_pools, bm25_rankings, model_run
from mimicrank.toydata import mini_collection
from mimicrank.nn import DenseLayer
from mimicrank.ranker import (
    RankModelConfig,
    RankModelParams,
    STUDENT_CONFIG,
    TEACHER_CONFIG,
    TrainingDiverged,
    compute_loss_and_grads,
    init_params,
    load_embedding_file,
    load_model,
    pool_scorer,
    represent_rows,
    save_model,
    score,
    train,
)

import batch_reference
from batch_reference import row_pairs
from scoring_reference import represent, score_batch, score_index_pool, score_pool
from conftest import MICRO_TEACHER_CONFIG
from gradcheck import finite_difference_check


def tiny_params(emb_rows, term_weights, layers, dim):
    vocab = Vocabulary([f"t{i}" for i in range(len(emb_rows))])
    return RankModelParams(
        config=RankModelConfig(
            embedding_dim=dim, hidden_layers=1, hidden_size=layers[0].out_dim,
            dropout_keep=1.0, learning_rate=1e-3, batch_size=4,
        ),
        vocabulary=vocab,
        embedding=np.asarray(emb_rows, dtype=float),
        term_weights=np.asarray(term_weights, dtype=float),
        layers=layers,
    )


def random_corpus_params(seed, emb_dim=5, hidden=7, n_hidden=2, n_docs=8):
    rng = np.random.default_rng(seed)
    docs = [
        Document(f"d{i}", " ".join(rng.choice(list("abcdefgh"), size=6)))
        for i in range(n_docs)
    ]
    index = build_index(docs)
    cfg = RankModelConfig(
        embedding_dim=emb_dim, hidden_layers=n_hidden, hidden_size=hidden,
        dropout_keep=1.0, learning_rate=1e-3, batch_size=4,
    )
    return index, init_params(cfg, index.vocabulary, index, seed=seed)


def random_instances(index, rng, n):
    """A PairSet of n pairs over index, each with its own random query."""
    query_rows, doc1, doc2 = [], [], []
    for _ in range(n):
        d1, d2 = (int(x) for x in rng.choice(index.doc_count, size=2, replace=False))
        doc1.append(d1)
        doc2.append(d2)
        query_rows.append(term_index_counts(
            index.vocabulary, rng.choice(list("abcdefgh"), size=2).tolist()))
    return PairSet(index, [f"q{k}" for k in range(n)], query_rows, np.arange(n), doc1, doc2,
                   1.0 + np.arange(n), np.full(n, 0.5))


def loss_and_grads(params, pairs, **kwargs):
    """compute_loss_and_grads over the pair columns of a whole PairSet."""
    return compute_loss_and_grads(
        params, ranker._pair_columns(pairs, len(params.vocabulary)), **kwargs)


# ---------------------------------------------------------------------------
# Table-driven configuration defaults


def test_builtin_configs():
    assert (TEACHER_CONFIG.hidden_layers, TEACHER_CONFIG.hidden_size) == (3, 512)
    assert (TEACHER_CONFIG.embedding_dim, TEACHER_CONFIG.batch_size) == (500, 512)
    assert TEACHER_CONFIG.learning_rate == 1e-3
    assert TEACHER_CONFIG.dropout_keep == pytest.approx(0.8)
    assert (STUDENT_CONFIG.hidden_size, STUDENT_CONFIG.embedding_dim) == (128, 300)
    assert STUDENT_CONFIG.dropout_keep == pytest.approx(0.9)


def test_config_validation():
    with pytest.raises(ValueError):
        RankModelConfig(embedding_dim=0)
    with pytest.raises(ValueError):
        RankModelConfig(dropout_keep=0.0)
    with pytest.raises(ValueError):
        RankModelConfig(dropout_keep=1.5)
    with pytest.raises(ValueError):
        RankModelConfig(learning_rate=-1.0)
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            RankModelConfig(learning_rate=rate)


# ---------------------------------------------------------------------------
# Representation


def identity_net(dim):
    # pass-through tail so represent() can be observed via forward paths
    return [DenseLayer(np.zeros((2 * dim, 1)), np.zeros(1), "tanh")]


def test_represent_weighted_sum():
    params = tiny_params(
        emb_rows=[[1.0, 0.0], [0.0, 1.0]],
        term_weights=[2.0, 3.0],
        layers=identity_net(2),
        dim=2,
    )
    assert np.array_equal(represent(params, ("t0", "t1")), [2.0, 3.0])


def test_represent_single_term_unit_weight():
    params = tiny_params(
        emb_rows=[[0.4, -0.7], [9.0, 9.0]],
        term_weights=[1.0, 5.0],
        layers=identity_net(2),
        dim=2,
    )
    assert np.array_equal(represent(params, ("t0",)), [0.4, -0.7])


def test_represent_oov_only_is_zero_vector():
    params = tiny_params(
        emb_rows=[[1.0, 1.0]],
        term_weights=[1.0],
        layers=identity_net(2),
        dim=2,
    )
    out = represent(params, ("nope", "missing"))
    assert out.shape == (2,)
    assert not out.any()


def test_represent_counts_repeated_terms():
    params = tiny_params(
        emb_rows=[[1.0, 2.0]],
        term_weights=[3.0],
        layers=identity_net(2),
        dim=2,
    )
    assert np.array_equal(represent(params, ("t0", "t0")), [6.0, 12.0])


def test_represent_order_invariant_bitwise():
    _, params = random_corpus_params(21)
    a = represent(params, ("a", "c", "b", "a"))
    b = represent(params, ("b", "a", "a", "c"))
    assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from("abcde"), max_size=6),
    st.lists(st.sampled_from("abcde"), max_size=6),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
def test_represent_linear_in_weights_and_additive(terms1, terms2, c):
    _, params = random_corpus_params(22)
    base = represent(params, tuple(terms1))
    scaled = copy.deepcopy(params)
    scaled.term_weights *= c
    assert np.allclose(represent(scaled, tuple(terms1)), c * base, rtol=1e-12, atol=1e-12)
    combined = represent(params, tuple(terms1) + tuple(terms2))
    split = base + represent(params, tuple(terms2))
    assert np.allclose(combined, split, rtol=1e-9, atol=1e-12)


def test_lone_row_is_its_own_block_with_the_block_path_bits(micro_collection,
                                                            micro_index, monkeypatch):
    # a query or document represented alone skips _row_table and
    # _count_blocks, yet still goes through the _represent_blocks attribute
    params = init_params(MICRO_TEACHER_CONFIG, micro_index.vocabulary, micro_index, seed=3)
    rows = [term_index_counts(params.vocabulary, q.terms)  # float64 counts
            for q in micro_collection.unlabeled_queries[:5]]
    rows += list(map(micro_index.doc_rows, range(5)))  # int64 counts
    rows += [(np.empty(0, dtype=np.int64), np.empty(0)),
             (np.array([4]), np.array([3], dtype=np.int64)),
             (np.array([4]), np.array([3.0]))]
    want = [ranker._represent_blocks(params, ranker._count_blocks(ranker._row_table([row])), 1)
            for row in rows]
    represent_blocks, calls = ranker._represent_blocks, []

    def spied(*args):
        calls.append(True)
        return represent_blocks(*args)

    monkeypatch.setattr(ranker, "_represent_blocks", spied)
    counted = spy_count_blocks(monkeypatch)
    for row, reps in zip(rows, want):
        got = represent_rows(params, [row])
        assert got.shape == reps.shape and got.tobytes() == reps.tobytes()
    assert len(calls) == len(rows) and counted == []
    # indices out of order, or repeated, take the block path
    for idx in ([6, 2], [2, 2]):
        row = (np.array(idx), np.array([1.0, 2.0]))
        reps = ranker._represent_blocks(params, ranker._count_blocks(ranker._row_table([row])), 1)
        counted.clear()
        assert represent_rows(params, [row]).tobytes() == reps.tobytes()
        assert len(counted) == 1


def test_inference_forwards_keep_no_cache(micro_index, monkeypatch):
    params = init_params(MICRO_TEACHER_CONFIG, micro_index.vocabulary, micro_index, seed=5)
    forward, calls = nn.forward, []

    def recorded(*args, **kwargs):
        calls.append(kwargs.get("cache", True))
        return forward(*args, **kwargs)

    monkeypatch.setattr(nn, "forward", recorded)
    score(params, ("a", "b"), ("b", "c"))
    scorer = pool_scorer(params, micro_index)
    scorer([("a",), ("b", "c")], [[0, 1, 2], [3]])
    assert calls == [False, False]


# ---------------------------------------------------------------------------
# Scoring


def score_one(scorer, query_terms, pool):
    """One pool's scores from a pool_scorer: a one-element call."""
    return scorer([query_terms], [pool])[0]


@pytest.mark.parametrize("dims", [(8, 16), (64, 128)])
def test_pool_scores_match_one_row_scores(micro_collection, micro_index, dims):
    emb, hidden = dims
    cfg = RankModelConfig(embedding_dim=emb, hidden_layers=2, hidden_size=hidden,
                          dropout_keep=1.0, learning_rate=1e-3, batch_size=4)
    params = init_params(cfg, micro_index.vocabulary, micro_index, seed=31)
    for query in micro_collection.eval_queries:
        pool, _ = micro_index.search(query.terms, 30)
        rows = [micro_index.doc_rows(d) for d in pool]
        # an index row alone gives the representation of the tf-expanded
        # terms, bitwise; in a pool's blocks it may differ in the last bits
        one_row = np.array([represent_rows(params, [row])[0] for row in rows])
        assert np.array_equal(
            one_row,
            np.array([represent(params, micro_index.doc_terms(d)) for d in pool]))
        np.testing.assert_allclose(represent_rows(params, rows), one_row,
                                   rtol=0.0, atol=1e-12)
        pooled = score_pool(params, query.terms, rows)
        one_by_one = [score(params, query.terms, micro_index.doc_terms(d))
                      for d in pool]
        assert pooled.shape == (len(pool),)
        assert np.allclose(pooled, one_by_one, rtol=0.0, atol=1e-12)
    assert score_pool(params, ("q",), []).shape == (0,)


@pytest.mark.parametrize("dims", [(8, 16), (64, 128)])
def test_pool_scorer_matches_score_pool_over_overlapping_pools(
        micro_collection, micro_index, dims):
    emb, hidden = dims
    cfg = RankModelConfig(embedding_dim=emb, hidden_layers=2, hidden_size=hidden,
                          dropout_keep=1.0, learning_rate=1e-3, batch_size=4)
    params = init_params(cfg, micro_index.vocabulary, micro_index, seed=31)
    queries = micro_collection.eval_queries + micro_collection.unlabeled_queries
    pools = [(q.terms, micro_index.search(q.terms, 30)[0]) for q in queries]
    seen = set(pools[0][1])
    repeats = 0
    for _, pool in pools[1:]:
        repeats += len(seen.intersection(pool))
        seen.update(pool)
    assert repeats > 0  # later pools hold documents of earlier ones
    scorer = pool_scorer(params, micro_index)
    first = [score_one(scorer, terms, pool) for terms, pool in pools]
    # every pool gets the bits of the index-block reference, and score_pool,
    # which blocks the pool's own rows, within 1e-12
    for (terms, pool), got in zip(pools, first):
        assert np.array_equal(got, score_index_pool(params, micro_index, terms, pool))
        reference = score_pool(params, terms, [micro_index.doc_rows(d) for d in pool])
        assert got.shape == (len(pool),)
        np.testing.assert_allclose(got, reference, rtol=0.0, atol=1e-12)
    # the table is filled: a second pass repeats the first bit for bit
    for (terms, pool), got in zip(pools, first):
        assert np.array_equal(score_one(scorer, terms, pool), got)
    # so does a fresh scorer's one call over every pool
    together = pool_scorer(params, micro_index)(*zip(*pools))
    assert all(np.array_equal(a, b) for a, b in zip(together, first))
    assert score_one(scorer, ("q",), []).shape == (0,)
    assert score_one(pool_scorer(params, micro_index), ("q",), []).shape == (0,)
    assert scorer([], []) == []
    with pytest.raises(ValueError, match="1 queries for 2 pools"):
        scorer([("q",)], [[0], [1]])


def test_pool_scorer_takes_query_rows_for_their_terms(micro_collection, micro_index,
                                                      micro_teacher):
    # scores.rows is the call with each query given as its term_index_counts
    # row, as held-out agreement scores a PairSet's queries
    terms = [q.terms for q in micro_collection.eval_queries] + [("zzz",)]
    pools = [micro_index.search(t, 20)[0] or [0, 1] for t in terms]
    by_terms = pool_scorer(micro_teacher, micro_index)(terms, pools)
    by_rows = pool_scorer(micro_teacher, micro_index).rows(
        [term_index_counts(micro_index.vocabulary, t) for t in terms], pools)
    assert [a.tobytes() for a in by_rows] == [a.tobytes() for a in by_terms]


def test_pool_scorer_checks_the_vocabulary_when_built(micro_collection, micro_index,
                                                      micro_teacher):
    other = build_index(micro_collection.documents[:30])
    with pytest.raises(ValueError, match="differs from the index vocabulary"):
        pool_scorer(micro_teacher, other)


def test_pool_scorer_built_after_a_weight_change_sees_it(micro_collection, micro_index):
    cfg = RankModelConfig(embedding_dim=8, hidden_layers=1, hidden_size=16,
                          dropout_keep=1.0, learning_rate=1e-3, batch_size=4)
    params = init_params(cfg, micro_index.vocabulary, micro_index, seed=37)
    query = micro_collection.eval_queries[0]
    pool, _ = micro_index.search(query.terms, 20)
    before = score_one(pool_scorer(params, micro_index), query.terms, pool)
    # in place, as train updates a model
    params.embedding *= 1.5
    params.layers[0].weights *= 0.5
    after = score_one(pool_scorer(params, micro_index), query.terms, pool)
    assert not np.allclose(after, before)
    np.testing.assert_array_equal(
        after, score_index_pool(params, micro_index, query.terms, pool))


def test_pool_scores_do_not_depend_on_the_order_pools_are_scored_in():
    # a document's row comes from its block of ranker._BLOCK_ROWS index
    # positions, whichever pool first holds it: two fresh scorers given the
    # same pools in opposite orders agree bit for bit. 300 documents make 4
    # full blocks and one of 44, and the pools reach into that last block
    collection = mini_collection()
    index = build_index(collection.documents)
    assert index.doc_count == 300
    config = RankModelConfig(embedding_dim=300, hidden_layers=1, hidden_size=128,
                             dropout_keep=1.0)
    params = init_params(config, index.vocabulary, index, seed=7)
    queries = collection.eval_queries + collection.unlabeled_queries[:5]
    pools = [(q.terms, index.search(q.terms, 30)[0]) for q in queries]
    assert len(pools) == 20 and all(len(pool) == 30 for _, pool in pools)
    assert any(max(pool) >= 256 for _, pool in pools)
    forward, backward = pool_scorer(params, index), pool_scorer(params, index)
    in_order = [score_one(forward, terms, pool) for terms, pool in pools]
    reversed_order = [score_one(backward, terms, pool) for terms, pool in pools[::-1]][::-1]
    for (terms, pool), a, b in zip(pools, in_order, reversed_order):
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() == score_index_pool(params, index, terms, pool).tobytes()


BATCH_CONFIG = RankModelConfig(embedding_dim=16, hidden_layers=2, hidden_size=32,
                               dropout_keep=1.0, learning_rate=1e-3, batch_size=4)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pool_scorer_scores_do_not_depend_on_batching(micro_collection, micro_index,
                                                      data):
    # pools of 1-100 rows with repeated documents, plus a prefix and a
    # permutation of each: once a scorer's table holds their documents, a
    # document's score depends only on the query, whether the pools are
    # scored one call each, in one call, or over forward chunk boundaries
    params = init_params(BATCH_CONFIG, micro_index.vocabulary, micro_index, seed=41)
    queries = [q.terms for q in micro_collection.eval_queries]
    positions = st.integers(0, micro_index.doc_count - 1)
    bases = data.draw(st.lists(
        st.tuples(st.sampled_from(queries), st.lists(positions, min_size=1, max_size=100)),
        min_size=1, max_size=3))
    scorer = pool_scorer(params, micro_index)
    expected = []  # {document: score} per base pool
    for terms, pool in bases:
        scores = score_one(scorer, terms, pool)
        by_doc = {}
        for d, value in zip(pool, scores):
            assert by_doc.setdefault(d, value) == value  # repeats score alike
        expected.append(by_doc)
    pools = [(i, terms, pool) for i, (terms, pool) in enumerate(bases)]
    for i, (terms, pool) in enumerate(bases):
        pools.append((i, terms, pool[:data.draw(st.integers(1, len(pool)))]))
        pools.append((i, terms, data.draw(st.permutations(pool))))
    base_of, terms, pool_list = zip(*pools)
    one_each = [score_one(scorer, t, p) for t, p in zip(terms, pool_list)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranker, "_FORWARD_ROWS", 16)
        chunked = scorer(terms, pool_list)
    results = [one_each, scorer(terms, pool_list), chunked,
               pool_scorer(params, micro_index)(terms, pool_list)]
    for scores in results:
        for i, pool, got in zip(base_of, pool_list, scores):
            want = np.array([expected[i][d] for d in pool])
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("hidden", [24, 128, 512])
def test_padded_forward_output_is_row_invariant(micro_index, hidden):
    # numpy computes the one-column output layer with gemv, whose rows after
    # the last multiple of 4 can take another kernel path, and the wide
    # layers' gemm differs at row counts below 8; _infer pads every forward
    # to a multiple of 8 rows, so any 1 to 100 rows, at any offset, get the
    # bits of a 100-row forward
    config = dataclasses.replace(BATCH_CONFIG, hidden_size=hidden)
    params = init_params(config, micro_index.vocabulary, micro_index, seed=43)
    rng = np.random.default_rng(hidden)
    doc_half = rng.normal(size=(140, hidden))
    query_half = rng.normal(size=(2, hidden))
    queries = rng.integers(0, 2, size=140)
    full = ranker._infer(params, doc_half, np.arange(140), query_half, queries)
    for n in range(1, 101):
        first = (7 * n) % 40
        rows = np.arange(first, first + n)
        got = ranker._infer(params, doc_half, rows, query_half, queries[rows])
        assert got.tobytes() == full[rows].tobytes(), n


def test_score_zero_dense_params_is_zero():
    _, params = random_corpus_params(23)
    for layer in params.layers:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    assert score(params, ("a", "b"), ("c",)) == 0.0


def test_score_deterministic():
    _, params = random_corpus_params(24)
    s1 = score(params, ("a",), ("b", "c"))
    s2 = score(params, ("a",), ("b", "c"))
    assert s1 == s2


def test_score_hand_computed_single_hidden_unit():
    # tanh(w2 · relu(w1 · x + b1) + b2) with x = [2, 3] (reps concatenated)
    dim = 1
    layers = [
        DenseLayer(np.array([[1.0], [1.0]]), np.array([0.5]), "relu"),
        DenseLayer(np.array([[0.25]]), np.array([-1.0]), "tanh"),
    ]
    vocab = Vocabulary(["q", "d"])
    params = RankModelParams(
        config=RankModelConfig(embedding_dim=dim, hidden_layers=1, hidden_size=1,
                               dropout_keep=1.0, learning_rate=1e-3, batch_size=1),
        vocabulary=vocab,
        embedding=np.array([[2.0], [3.0]]),
        term_weights=np.array([1.0, 1.0]),
        layers=layers,
    )
    expected = math.tanh(0.25 * max(0.0, 1.0 * 2.0 + 1.0 * 3.0 + 0.5) - 1.0)
    assert score(params, ("q",), ("d",)) == pytest.approx(expected, rel=1e-15)


def test_score_range_bounded():
    _, params = random_corpus_params(25)
    rng = np.random.default_rng(0)
    for _ in range(40):
        q = tuple(rng.choice(list("abcdefgh"), size=2))
        d = tuple(rng.choice(list("abcdefgh"), size=5))
        assert -1.0 < score(params, q, d) < 1.0


def test_score_equals_the_pool_reference_bitwise(micro_collection, micro_index,
                                                 micro_teacher):
    # score represents the query and the document alone and forwards one
    # row: the bits of score_pool over a one-document pool, also for a
    # query with no term in the vocabulary
    queries = [q.terms for q in micro_collection.eval_queries] + [("zzz", "unseen")]
    for terms in queries:
        for d in range(0, micro_index.doc_count, 7):
            doc_terms = micro_index.doc_terms(d)
            want = score_pool(micro_teacher, terms,
                              [term_index_counts(micro_index.vocabulary, doc_terms)])
            assert np.float64(score(micro_teacher, terms, doc_terms)).tobytes() == (
                want[0].tobytes())


# ---------------------------------------------------------------------------
# Hinge loss


def hinge_loss(instances, pair_scores):
    """(1/|b|) Σ max{0, 1 − sign(s1−s2)·(S1−S2)} over the batch: the loss
    compute_loss_and_grads takes, from labels and scores alone.

    pair_scores: (S1, S2) arrays aligned with instances. Label ties are
    rejected: sign(0) would turn the term into a gradient-free constant.
    """
    s1_labels = np.array([inst.s1 for inst in instances])
    s2_labels = np.array([inst.s2 for inst in instances])
    if (s1_labels == s2_labels).any():
        raise ValueError("tied label scores in batch")
    sign = np.where(s1_labels > s2_labels, 1.0, -1.0)
    big_s1, big_s2 = (np.asarray(a, dtype=np.float64) for a in pair_scores)
    terms = np.maximum(0.0, 1.0 - sign * (big_s1 - big_s2))
    return float(terms.mean())


def make_instance(s1, s2):
    return TrainingInstance("q", "d1", "d2", s1, s2)  # the hinge reads only labels


def test_hinge_margin_exactly_met():
    inst = make_instance(2.0, 1.0)
    assert hinge_loss([inst], (np.array([1.0]), np.array([0.0]))) == 0.0


def test_hinge_equal_model_scores():
    assert hinge_loss([make_instance(2.0, 1.0)], (np.array([0.3]), np.array([0.3]))) == 1.0
    assert hinge_loss([make_instance(1.0, 2.0)], (np.array([0.3]), np.array([0.3]))) == 1.0


def test_hinge_wrong_direction_and_batch_mean():
    # labels prefer doc2 but the model puts doc1 ahead by 0.5
    insts = [make_instance(1.0, 2.0), make_instance(2.0, 1.0)]
    s1 = np.array([0.5, 1.0])
    s2 = np.array([0.0, 0.0])
    # terms: 1 + 0.5 = 1.5 and 0 -> mean 0.75
    assert hinge_loss(insts, (s1, s2)) == pytest.approx(0.75)


def test_hinge_rejects_label_ties():
    good = make_instance(2.0, 1.0)
    bad = object.__new__(TrainingInstance)
    object.__setattr__(bad, "query_id", "q")
    object.__setattr__(bad, "doc1_id", "d1")
    object.__setattr__(bad, "doc2_id", "d2")
    object.__setattr__(bad, "s1", 1.0)
    object.__setattr__(bad, "s2", 1.0)
    with pytest.raises(ValueError, match="tied"):
        hinge_loss([good, bad], (np.array([0.1, 0.2]), np.array([0.0, 0.1])))


def test_hinge_nonnegative_random():
    rng = np.random.default_rng(1)
    insts = [make_instance(2.0, 1.0), make_instance(0.0, 3.0), make_instance(5.0, -1.0)]
    for _ in range(25):
        s1 = rng.uniform(-1, 1, 3)
        s2 = rng.uniform(-1, 1, 3)
        assert hinge_loss(insts, (s1, s2)) >= 0.0


def test_training_loss_is_the_hinge_of_the_pair_scores():
    params, batch = count_matrix_batch(2)
    n = len(batch)
    rows = row_pairs(batch)
    queries = [pair.query_rows for pair in rows]
    scores = score_batch(params, queries + queries, [pair.doc1_rows for pair in rows]
                         + [pair.doc2_rows for pair in rows])
    loss = hinge_loss(list(batch), (scores[:n], scores[n:]))
    assert loss > 0.0
    assert loss_and_grads(params, batch)[0] == pytest.approx(loss, rel=0, abs=1e-12)


# ---------------------------------------------------------------------------
# End-to-end gradients (the module's central correctness property)


def test_end_to_end_gradient_check():
    index, params = random_corpus_params(26)
    rng = np.random.default_rng(4)
    batch = random_instances(index, rng, 4)

    def loss_fn():
        return loss_and_grads(params, batch)[0]

    loss, grads = loss_and_grads(params, batch)
    assert loss > 0.0
    plist = [params.embedding, params.term_weights] + [
        a for l in params.layers for a in (l.weights, l.bias)
    ]
    glist = [grads["d_embedding"], grads["d_term_weights"]] + [
        a for w, b in zip(grads["d_layer_weights"], grads["d_layer_biases"])
        for a in (w, b)
    ]
    report = finite_difference_check(loss_fn, plist, glist, max_coords_per_param=20, seed=6)
    assert report.passed, report


def test_gradients_flow_into_all_parameter_groups():
    index, params = random_corpus_params(27)
    rng = np.random.default_rng(5)
    batch = random_instances(index, rng, 6)
    _, grads = loss_and_grads(params, batch)
    assert np.abs(grads["d_embedding"]).sum() > 0
    assert np.abs(grads["d_term_weights"]).sum() > 0
    for dw in grads["d_layer_weights"]:
        assert np.abs(dw).sum() > 0


def per_row_loss_and_grads(params, batch, rng=None):
    """Reference for compute_loss_and_grads without a count matrix.

    Each (pair, row) of the PairSet batch is represented on its own, each
    side's layer 0 is formed whole as [q ‖ d]·W0 + b0, and each (pair,
    row) gradient is scattered back into the embedding and term weights
    alone.
    """
    batch = row_pairs(batch)
    n, m = len(batch), params.config.embedding_dim
    q_rows = [inst.query_rows for inst in batch]
    d1_rows = [inst.doc1_rows for inst in batch]
    d2_rows = [inst.doc2_rows for inst in batch]

    def represent_each(rows):
        out = np.zeros((len(rows), m))
        for i, (idx, counts) in enumerate(rows):
            if idx.size:
                out[i] = (counts * params.term_weights[idx]) @ params.embedding[idx]
        return out

    q_reps = represent_each(q_rows)
    x1 = np.concatenate([q_reps, represent_each(d1_rows)], axis=1)
    x2 = np.concatenate([q_reps, represent_each(d2_rows)], axis=1)
    w0, b0 = params.layers[0].weights, params.layers[0].bias
    keep = params.config.dropout_keep
    out1, cache1 = nn.forward(params.layers, x1 @ w0 + b0, keep, rng)
    out2, cache2 = nn.forward(params.layers, x2 @ w0 + b0, keep, rng)
    sign = np.array([1.0 if inst.s1 > inst.s2 else -1.0 for inst in batch])
    margins = 1.0 - sign * (out1[:, 0] - out2[:, 0])
    active = margins > 0.0
    store1 = nn.backward(cache1, (np.where(active, -sign, 0.0) / n)[:, None])
    store2 = nn.backward(cache2, (np.where(active, sign, 0.0) / n)[:, None])

    d_embedding = np.zeros_like(params.embedding)
    d_term_weights = np.zeros_like(params.term_weights)

    def scatter(pair, d_rep):
        idx, counts = pair
        if idx.size:
            d_embedding[idx] += (counts * params.term_weights[idx])[:, None] * d_rep
            d_term_weights[idx] += counts * (params.embedding[idx] @ d_rep)

    d0_1, d0_2 = store1.d_input, store2.d_input
    dx1, dx2 = d0_1 @ w0.T, d0_2 @ w0.T
    for i in range(n):
        scatter(q_rows[i], dx1[i, :m] + dx2[i, :m])
        scatter(d1_rows[i], dx1[i, m:])
        scatter(d2_rows[i], dx2[i, m:])
    return float(np.maximum(0.0, margins).mean()), {
        "d_embedding": d_embedding,
        "d_term_weights": d_term_weights,
        "d_layer_weights": [x1.T @ d0_1 + x2.T @ d0_2] + [
            a + b for a, b in zip(store1.d_weights[1:], store2.d_weights[1:])],
        "d_layer_biases": [d0_1.sum(axis=0) + d0_2.sum(axis=0)] + [
            a + b for a, b in zip(store1.d_biases[1:], store2.d_biases[1:])],
    }


def count_matrix_batch(seed, dropout_keep=1.0):
    """Params and a batch with repeated terms, query terms in its documents,
    one document as doc1 and as doc2 of different instances, and an empty
    document row."""
    rng = np.random.default_rng(seed)
    docs = [Document("rep", "a a a b c c"), Document("empty", ""),
            Document("x", "b d d e"), Document("y", "a e f f f g"),
            Document("z", "g h h a")]
    index = build_index(docs)
    cfg = RankModelConfig(embedding_dim=6, hidden_layers=2, hidden_size=9,
                          dropout_keep=dropout_keep, learning_rate=1e-3, batch_size=8)
    params = init_params(cfg, index.vocabulary, index, seed=seed)
    params.term_weights[:] = rng.uniform(0.2, 2.0, len(index.vocabulary))
    for layer in params.layers:
        layer.weights *= 3.0  # keep most hinges active
    pairs = [("a a b", 0, 2), ("c", 2, 0), ("e e f", 1, 3), ("a g", 3, 1),
             ("h h a", 4, 0), ("b d", 0, 4), ("zzz", 2, 3), ("f g a", 3, 2)]
    n = len(pairs)
    texts, doc1, doc2 = zip(*pairs)
    s1 = [float(rng.choice([-1.0, 1.0])) * (k + 1) for k in range(n)]
    batch = PairSet(index, [f"q{k}" for k in range(n)],
                    [term_index_counts(index.vocabulary, text.split()) for text in texts],
                    np.arange(n), doc1, doc2, s1, np.zeros(n))
    return params, batch


def assert_same_loss_and_grads(got, want):
    assert got[0] == pytest.approx(want[0], rel=0, abs=1e-12)
    for name in ("d_embedding", "d_term_weights"):
        np.testing.assert_allclose(got[1][name], want[1][name], rtol=0, atol=1e-12)
    for name in ("d_layer_weights", "d_layer_biases"):
        assert len(got[1][name]) == len(want[1][name])
        for a, b in zip(got[1][name], want[1][name]):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("block_rows", [1, 5, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_count_matrix_gradients_match_per_row_reference(seed, block_rows, monkeypatch):
    # 24 rows: blocks of 1 isolate the empty rows, blocks of 5 straddle the
    # query/doc1/doc2 boundaries, one block of 64 holds them all
    monkeypatch.setattr(ranker, "_BLOCK_ROWS", block_rows)
    params, batch = count_matrix_batch(seed)
    got = loss_and_grads(params, batch)
    assert got[0] > 0.0
    assert np.abs(got[1]["d_embedding"]).sum() > 0.0
    assert_same_loss_and_grads(got, per_row_loss_and_grads(params, batch))
    # single pairs and the batch minus its empty-row pairs
    full = [k for k, inst in enumerate(batch) if "empty" not in (inst.doc1_id, inst.doc2_id)]
    for sub in (batch.take([2]), batch.take([0]), batch.take(full)):
        assert_same_loss_and_grads(loss_and_grads(params, sub),
                                   per_row_loss_and_grads(params, sub))


def test_count_blocks_grow_with_nonzeros_not_vocabulary():
    # rows over a million-term vocabulary, some of them empty: each block's
    # C is dense over its own terms only, its u ascending, and together the
    # blocks hold exactly the rows, whether they are a whole table's rows
    # or rows picked from a table, as training picks a batch's
    rng = np.random.default_rng(0)
    rows = []
    for k in range(150):
        idx = np.unique(rng.integers(0, 1_000_000, size=k % 7))
        rows.append((idx, rng.integers(1, 4, size=idx.size)))
    rows += [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))] * 64  # a block of none
    table = ranker._row_table(rows)
    assert table.term_of.size <= sum(idx.size for idx, _ in rows)
    picked = rng.permutation(len(rows))[:100]
    for part, blocks in ((rows, ranker._count_blocks(table)),
                         (rows[:40], ranker._count_blocks(ranker._row_table(rows[:40]))),
                         ([rows[i] for i in picked], ranker._count_blocks(table, picked))):
        seen = 0
        for first, u, counts in blocks:
            block = part[first:first + ranker._BLOCK_ROWS]
            assert first == seen
            assert counts.shape == (len(block), u.size)
            assert u.size <= sum(idx.size for idx, _ in block)
            assert (np.diff(u) > 0).all()
            for i, (idx, c) in enumerate(block):
                np.testing.assert_array_equal(u[counts[i] > 0], idx)
                np.testing.assert_array_equal(counts[i][counts[i] > 0], c)
            seen += len(block)
        assert seen == len(part)


def test_count_matrix_keeps_the_dropout_mask_stream():
    params, batch = count_matrix_batch(3, dropout_keep=0.7)
    got = loss_and_grads(params, batch, rng=np.random.default_rng(5))
    want = per_row_loss_and_grads(params, batch, rng=np.random.default_rng(5))
    assert got[0] == want[0]
    assert_same_loss_and_grads(got, want)


def test_training_step_drops_out_at_the_model_keep_rate():
    # the step's dropout follows params.config.dropout_keep: below 1 it
    # needs an rng and draws masks from it, at 1 it draws nothing
    params, batch = count_matrix_batch(3, dropout_keep=0.7)
    with pytest.raises(ValueError, match="rng"):
        loss_and_grads(params, batch)
    rng = np.random.default_rng(5)
    loss_and_grads(params, batch, rng=rng)
    assert rng.bit_generator.state != np.random.default_rng(5).bit_generator.state
    params, batch = count_matrix_batch(3)
    rng = np.random.default_rng(5)
    assert_same_loss_and_grads(loss_and_grads(params, batch, rng=rng),
                               loss_and_grads(params, batch))
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state


def spy_count_blocks(monkeypatch):
    """Record the rows of every _count_blocks call as (term indices, counts)."""
    blocks, calls = ranker._count_blocks, []

    def spy(table, rows=None):
        picked = range(table.offsets.size - 1) if rows is None else rows
        calls.append([(table.term_of[table.terms[table.offsets[r]:table.offsets[r + 1]]],
                       table.counts[table.offsets[r]:table.offsets[r + 1]])
                      for r in picked])
        return blocks(table, rows)

    monkeypatch.setattr(ranker, "_count_blocks", spy)
    return calls


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for (idx, counts), (want_idx, want_counts) in zip(got, want):
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(counts, want_counts)


# pair k's query is number groups[k], of text texts[groups[k]]; equal texts
# are distinct queries of equal rows
@pytest.mark.parametrize("groups, texts", [
    ([0] * 8, ["a a b"]),
    ([2, 0, 2, 1, 2, 2, 1, 2], ["c", "e e f", "f g a"]),
    ([0, 1, 2, 2, 3, 4, 5, 6], ["h h a", "h h a", "b d", "zzz", "a g", "c", "e e f"]),
], ids=["one-query", "1-2-5-instances", "equal-rows-distinct-objects"])
@pytest.mark.parametrize("keep", [1.0, 0.7])
def test_shared_queries_match_per_row_reference(groups, texts, keep, monkeypatch):
    params, batch = count_matrix_batch(4, dropout_keep=keep)
    shared = [term_index_counts(params.vocabulary, text.split()) for text in texts]
    batch = PairSet(batch.index, [f"g{g}" for g in range(len(texts))], shared, groups,
                    batch.doc1, batch.doc2, batch.s1, batch.s2)
    calls = spy_count_blocks(monkeypatch)
    got = loss_and_grads(params, batch,
                         rng=np.random.default_rng(6) if keep < 1.0 else None)
    # one build: each distinct query once, equal rows of distinct queries
    # apart, then the batch's 5 distinct documents, all by first appearance
    docs = {}
    for side in ("1", "2"):
        for inst in row_pairs(batch):
            docs.setdefault(getattr(inst, f"doc{side}_id"), getattr(inst, f"doc{side}_rows"))
    assert len(calls) == 1 and len(docs) == 5
    assert_same_rows(calls[0], [shared[g] for g in dict.fromkeys(groups)] + list(docs.values()))
    want = per_row_loss_and_grads(params, batch,
                                  rng=np.random.default_rng(6) if keep < 1.0 else None)
    assert got[0] > 0.0
    assert_same_loss_and_grads(got, want)


# (query, doc1, doc2) per pair: queries number the test's three query
# texts, documents are positions of count_matrix_batch's five, 1 being empty
@pytest.mark.parametrize("pairs", [
    [(0, 0, 2), (1, 2, 3), (2, 4, 0), (0, 3, 4)],
    [(0, 3, 0), (1, 2, 3), (2, 3, 4), (1, 0, 2)],
    [(0, 2, 2), (1, 0, 4), (2, 4, 4)],
    [(0, 1, 3), (1, 2, 1), (2, 1, 0), (0, 4, 2)],
], ids=["doc1-and-doc2", "three-queries", "doc1-is-doc2", "empty-row"])
@pytest.mark.parametrize("keep", [1.0, 0.7])
def test_shared_documents_match_per_row_reference(pairs, keep, monkeypatch):
    params, batch = count_matrix_batch(5, dropout_keep=keep)
    index = batch.index
    assert index.doc_ids == ["rep", "empty", "x", "y", "z"]
    queries = [term_index_counts(params.vocabulary, text.split())
               for text in ("a a b", "c", "e e f")]
    query, doc1, doc2 = zip(*pairs)
    batch = PairSet(index, ["q0", "q1", "q2"], queries, query, doc1, doc2,
                    [(-1.0) ** k * (k + 1) for k in range(len(pairs))], np.zeros(len(pairs)))
    calls = spy_count_blocks(monkeypatch)
    got = loss_and_grads(params, batch,
                         rng=np.random.default_rng(7) if keep < 1.0 else None)
    # one build: the distinct queries, then the distinct documents, doc1
    # side before doc2 side, each by first appearance
    distinct_queries = dict.fromkeys(q for q, _, _ in pairs)
    distinct_docs = dict.fromkeys([d1 for _, d1, _ in pairs] + [d2 for _, _, d2 in pairs])
    assert len(calls) == 1
    assert_same_rows(calls[0], [queries[q] for q in distinct_queries]
                     + [index.doc_rows(d) for d in distinct_docs])
    want = per_row_loss_and_grads(params, batch,
                                  rng=np.random.default_rng(7) if keep < 1.0 else None)
    assert got[0] > 0.0
    assert_same_loss_and_grads(got, want)


# ---------------------------------------------------------------------------
# Training


def separable_setup():
    index = build_index(
        [Document("d0", "apple banana"), Document("d1", "cherry date")]
    )
    cfg = RankModelConfig(embedding_dim=4, hidden_layers=1, hidden_size=8,
                          dropout_keep=1.0, learning_rate=1e-2, batch_size=4)
    params = init_params(cfg, index.vocabulary, index, seed=3)
    pairs = PairSet(index, ["q"], [term_index_counts(index.vocabulary, ("apple",))],
                    [0], [0], [1], [2.0], [1.0])
    return cfg, params, pairs


def test_train_zero_epochs_is_identity():
    cfg, params, pairs = separable_setup()
    before = copy.deepcopy(params)
    result = train(params, cfg, pairs, epochs=0, seed=1)
    assert result.epoch_losses == []
    assert np.array_equal(params.embedding, before.embedding)
    assert np.array_equal(params.term_weights, before.term_weights)
    for a, b in zip(params.layers, before.layers):
        assert np.array_equal(a.weights, b.weights)


def test_train_loss_trace_bit_identical_across_runs():
    index, params_a = random_corpus_params(28)
    _, params_b = random_corpus_params(28)
    rng = np.random.default_rng(6)
    insts = random_instances(index, rng, 10)
    trace_a = train(params_a, params_a.config, insts, epochs=4, seed=9).epoch_losses
    trace_b = train(params_b, params_b.config, insts, epochs=4, seed=9).epoch_losses
    assert trace_a == trace_b
    assert np.array_equal(params_a.embedding, params_b.embedding)


def test_train_separable_instance_converges_monotonically():
    cfg, params, pairs = separable_setup()
    trace = train(params, cfg, pairs, epochs=60, seed=11).epoch_losses
    assert trace[-1] < 0.05
    for earlier, later in zip(trace, trace[1:]):
        assert later <= earlier + 1e-12


def test_train_rejects_empty_instances():
    cfg, params, pairs = separable_setup()
    with pytest.raises(ValueError):
        train(params, cfg, pairs.take([]), epochs=1, seed=0)


def test_train_rejects_negative_epochs():
    # -2 epochs used to return the untrained model with an empty loss list
    cfg, params, pairs = separable_setup()
    with pytest.raises(ValueError, match="epochs must be non-negative, got -2"):
        train(params, cfg, pairs, epochs=-2, seed=0)


def test_train_aborts_on_divergence_naming_the_epoch():
    cfg, params, pairs = separable_setup()
    params.embedding[:] = np.nan
    with pytest.raises(TrainingDiverged) as excinfo:
        train(params, cfg, pairs, epochs=3, seed=0)
    assert excinfo.value.epoch == 0


@pytest.mark.parametrize("side", ["query", "doc1", "doc2"])
@pytest.mark.parametrize("bad", ["negative", "vocabulary-size", "beyond"])
def test_train_rejects_term_indices_outside_the_vocabulary(side, bad):
    # a row index of -1 would read the last term's weight and embedding,
    # and one of |V| or more would fail mid-epoch after earlier updates;
    # train checks every row once, before its first step
    cfg, params, pairs = separable_setup()
    n_terms = len(params.vocabulary)
    term = {"negative": -1, "vocabulary-size": n_terms, "beyond": n_terms + 7}[bad]
    rows = (np.array([0, term]), np.array([1.0, 2.0]))
    # pair 2 asks query q9 about d0 and d1, with d9 in place of one on a
    # document side; the side under test holds the bad rows
    index, query_rows = pairs.index, pairs.query_rows[0]
    docs = SimpleNamespace(doc_ids=[*index.doc_ids, "d9"],
                           doc_rows=[index.doc_rows(0), index.doc_rows(1), rows].__getitem__)
    broken = PairSet(docs, ["q", "q9"], [query_rows, rows if side == "query" else query_rows],
                     [0, 0, 1], [0, 0, 2 if side == "doc1" else 0],
                     [1, 1, 2 if side == "doc2" else 1], [2.0] * 3, [1.0] * 3)
    name = {"query": "query 'q9'", "doc1": "document 'd9'", "doc2": "document 'd9'"}[side]
    before = copy.deepcopy(params)
    with pytest.raises(ValueError, match=f"{name} holds term index {term}, outside a "
                                         f"vocabulary of {n_terms} terms"):
        train(params, dataclasses.replace(cfg, batch_size=1), broken, epochs=2, seed=0)
    for a, b in zip(ranker._trainable(params), ranker._trainable(before)):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(ValueError, match=name):
        loss_and_grads(params, broken.take([0, 2]))


def edge_case_instances(seed):
    """count_matrix_batch's pairs (an empty document row, a query with no
    indexed term, a document as doc1 and as doc2 of different pairs) plus
    the documents of its first three pairs again under one shared query,
    those of the next two under two queries of equal rows, and a pair of
    one document with itself under the shared query."""
    params, batch = count_matrix_batch(seed)
    x = batch.index.doc_ids.index("x")
    again = [0, 1, 2, 3, 4]
    query_rows = batch.query_rows + [term_index_counts(params.vocabulary, "a a b".split())
                                     for _ in range(3)]
    pairs = PairSet(batch.index, batch.query_ids + ["shared", "equal-1", "equal-2"],
                    query_rows, np.concatenate([batch.query, [8, 8, 8, 9, 10, 8]]),
                    np.concatenate([batch.doc1, batch.doc1[again], [x]]),
                    np.concatenate([batch.doc2, batch.doc2[again], [x]]),
                    np.concatenate([batch.s1, batch.s1[again], [2.0]]),
                    np.concatenate([batch.s2, batch.s2[again], [1.0]]))
    return params, pairs


@pytest.mark.parametrize("case", [
    "micro-no-dropout", "three-hidden-layers-dropout", "edge-cases", "edge-cases-dropout",
])
def test_train_matches_the_instance_list_reference_bitwise(case, micro_collection,
                                                          micro_index):
    # train takes pair columns and blocks each batch from arrays; the
    # reference groups every batch's instance list and builds its blocks
    # from row tuples, and the parameters must come out bit for bit alike,
    # final partial batches included
    if case.startswith("edge-cases"):
        params, instances = edge_case_instances(8)
        config = dataclasses.replace(params.config, batch_size=4,
                                     dropout_keep=0.7 if case.endswith("dropout") else 1.0)
        params = dataclasses.replace(params, config=config)
    else:
        instances, _ = annotate_queries(micro_index, micro_collection.train_queries,
                                        pool_size=20, pairs_per_query=10, seed=17)
        config = MICRO_TEACHER_CONFIG if case == "micro-no-dropout" else RankModelConfig(
            embedding_dim=12, hidden_layers=3, hidden_size=20, dropout_keep=0.8,
            learning_rate=5e-3, batch_size=48)
        params = init_params(config, micro_index.vocabulary, micro_index, seed=19)
    assert len(instances) % config.batch_size
    reference = copy.deepcopy(params)
    losses = train(params, config, instances, epochs=3, seed=13).epoch_losses
    assert losses == batch_reference.train(reference, config, instances, 3, seed=13)
    for got, want in zip(ranker._trainable(params), ranker._trainable(reference)):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Ranking


def rank_by_scores(scored, cutoff):
    """Reference order of a run's entries: (doc_id, score) pairs by score
    descending, then doc_id ascending, cut at cutoff (None keeps all)."""
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))[:cutoff]


def fixed_scores(by_doc_id, index):
    """A model_run scorer that gives each document the score by_doc_id names."""
    return lambda queries_terms, pools: [
        np.array([by_doc_id[index.doc_ids[d]] for d in pool]) for pool in pools]


def searched_pools(index, queries, pool_size):
    """Each query's BM25 top pool_size, as the rank stage pools them."""
    return bm25_pools(bm25_rankings(index, queries, pool_size), pool_size)


def one_term_index(doc_ids):
    """An index whose documents all hold the term x, at differing counts."""
    return build_index([Document(doc_id, " ".join(["x"] * (1 + i % 3) + ["y"] * (i % 2)))
                        for i, doc_id in enumerate(doc_ids)])


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(st.text("abcdef", min_size=1, max_size=3), min_size=1, max_size=12,
                    unique=True),
       data=st.data())
def test_model_run_orders_like_rank_by_scores(ids, data):
    # model_run ranks each pool with one lexsort on (-score, doc-id rank);
    # with ties forced and -0.0 against 0.0, pools of unequal sizes in any
    # order, an empty one among them and a cutoff above some pool sizes,
    # each query must get its own pool's lexsort order and rank_by_scores'
    index = one_term_index(ids)
    values = st.sampled_from([-1.0, -0.25, -0.0, 0.0, 0.25, 1.0])
    by_doc_id = dict(zip(ids, data.draw(st.lists(values, min_size=len(ids),
                                                 max_size=len(ids)))))
    cutoff = data.draw(st.integers(1, len(ids) + 1))
    pools = data.draw(st.lists(st.lists(st.integers(0, len(ids) - 1), unique=True),
                               max_size=4))
    pools.insert(data.draw(st.integers(0, len(pools))), [])
    pools += searched_pools(index, [Query("q1", ("x",)), Query("q2", ("y",))], len(ids))
    queries = [Query(f"q{i}", ("x",)) for i in range(len(pools))]
    run = model_run(index, queries, fixed_scores(by_doc_id, index), pools, cutoff)
    assert list(run) == [q.query_id for q in queries]
    for q, pool in zip(queries, pools):
        pool = np.asarray(pool, dtype=np.intp)
        pool_scores = np.array([by_doc_id[index.doc_ids[d]] for d in pool.tolist()])
        top = np.lexsort((index.id_rank[pool], -pool_scores))[:cutoff]
        want = [(index.doc_ids[d], s) for d, s in zip(pool[top].tolist(),
                                                      pool_scores[top].tolist())]
        assert [(d, repr(s)) for d, s in run[q.query_id]] == \
            [(d, repr(s)) for d, s in want]
        assert [d for d, _ in want] == [d for d, _ in rank_by_scores(want, None)]
        assert len(want) == min(len(pool), cutoff)


def test_model_run_rejects_cutoff_below_one():
    index = one_term_index(["a", "b", "c"])
    for cutoff in (0, -1, -3):
        with pytest.raises(ValueError, match="cutoff must be at least 1"):
            model_run(index, [Query("q", ("x",))],
                      fixed_scores({"a": 0.5, "b": 0.7, "c": 0.1}, index), [[0, 1, 2]],
                      cutoff)


def test_rank_single_candidate():
    index = build_index([Document("dX", "b c"), Document("dY", "e f")])
    params = init_params(BATCH_CONFIG, index.vocabulary, index, seed=29)
    queries = [Query("q", ("b",))]
    run = model_run(index, queries, pool_scorer(params, index),
                    searched_pools(index, queries, 10), 10)
    assert [doc_id for doc_id, _ in run["q"]] == ["dX"]


def test_rank_zero_params_sorts_by_doc_id():
    index = one_term_index(["dz", "da", "dm"])
    params = init_params(BATCH_CONFIG, index.vocabulary, index, seed=30)
    for layer in params.layers:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    queries = [Query("q", ("x",))]
    run = model_run(index, queries, pool_scorer(params, index),
                    searched_pools(index, queries, 10), 10)
    assert [doc_id for doc_id, _ in run["q"]] == ["da", "dm", "dz"]
    assert all(s == 0.0 for _, s in run["q"])


def test_rank_input_order_invariance():
    # the same documents at other index positions rank alike
    ids = ["d1", "d2", "d3", "d4", "d5"]
    by_doc_id = {"d1": 0.5, "d2": -0.0, "d3": 0.5, "d4": 0.0, "d5": 0.9}
    runs = []
    for order in (ids, ids[::-1]):
        index = one_term_index(order)
        queries = [Query("q", ("x",))]
        runs.append(model_run(index, queries, fixed_scores(by_doc_id, index),
                              searched_pools(index, queries, 10), 10))
    assert runs[0] == runs[1]
    assert [d for d, _ in runs[0]["q"]] == ["d5", "d1", "d3", "d2", "d4"]


def test_rank_cutoff():
    index = one_term_index([f"d{i}" for i in range(5)])
    params = init_params(BATCH_CONFIG, index.vocabulary, index, seed=32)
    queries = [Query("q", ("x",))]
    run = model_run(index, queries, pool_scorer(params, index),
                    searched_pools(index, queries, 10), 3)
    assert len(run["q"]) == 3


# ---------------------------------------------------------------------------
# Initialization


def test_init_params_seeded_reproducible():
    index, _ = random_corpus_params(34)
    cfg = RankModelConfig(embedding_dim=6, hidden_layers=2, hidden_size=5,
                          dropout_keep=0.9, learning_rate=1e-3, batch_size=8)
    a = init_params(cfg, index.vocabulary, index, seed=42)
    b = init_params(cfg, index.vocabulary, index, seed=42)
    assert np.array_equal(a.embedding, b.embedding)
    assert np.array_equal(a.term_weights, b.term_weights)
    c = init_params(cfg, index.vocabulary, index, seed=43)
    assert not np.array_equal(a.embedding, c.embedding)


def test_init_params_embedding_bounds_and_idf_weights():
    index, _ = random_corpus_params(35)
    cfg = RankModelConfig(embedding_dim=3, hidden_layers=1, hidden_size=4,
                          dropout_keep=1.0, learning_rate=1e-3, batch_size=8)
    params = init_params(cfg, index.vocabulary, index, seed=0)
    assert (np.abs(params.embedding) <= 0.1).all()
    for t, term in enumerate(index.vocabulary.terms):
        assert params.term_weights[t] == index.idf(term)


def test_init_params_term_in_every_doc_gets_zero_weight():
    index = build_index([Document("d0", "common x"), Document("d1", "common y")])
    cfg = RankModelConfig(embedding_dim=2, hidden_layers=1, hidden_size=2,
                          dropout_keep=1.0, learning_rate=1e-3, batch_size=2)
    params = init_params(cfg, index.vocabulary, index, seed=0)
    t = index.vocabulary.index_of("common")
    assert params.term_weights[t] == 0.0


def test_init_params_loads_embedding_file(tmp_path):
    index = build_index([Document("d0", "dog cat"), Document("d1", "cat bird")])
    path = tmp_path / "emb.txt"
    path.write_text("3 2\ndog 0.5 -0.25\nunrelated 9 9\n", encoding="utf-8")
    cfg = RankModelConfig(embedding_dim=2, hidden_layers=1, hidden_size=2,
                          dropout_keep=1.0, learning_rate=1e-3, batch_size=2)
    params = init_params(cfg, index.vocabulary, index, embedding_file=path, seed=0)
    t = index.vocabulary.index_of("dog")
    assert np.array_equal(params.embedding[t], [0.5, -0.25])
    # tokens missing from the file keep random rows within the init range
    c = index.vocabulary.index_of("cat")
    assert (np.abs(params.embedding[c]) <= 0.1).all()


def test_init_params_rejects_dim_mismatch(tmp_path):
    index = build_index([Document("d0", "dog")])
    path = tmp_path / "emb.txt"
    path.write_text("dog 1.0 2.0 3.0\n", encoding="utf-8")
    cfg = RankModelConfig(embedding_dim=2, hidden_layers=1, hidden_size=2,
                          dropout_keep=1.0, learning_rate=1e-3, batch_size=2)
    with pytest.raises(ValueError, match="dimension"):
        init_params(cfg, index.vocabulary, index, embedding_file=path, seed=0)


def test_load_embedding_file_without_header(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("alpha 1 2\nbeta 3 4\n", encoding="utf-8")
    vectors, dim = load_embedding_file(path)
    assert dim == 2
    assert np.array_equal(vectors["alpha"], [1.0, 2.0])


def test_load_embedding_file_rejects_ragged(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("alpha 1 2\nbeta 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="emb.txt:2"):
        load_embedding_file(path)


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "NaN"])
def test_load_embedding_file_rejects_non_finite_entries(tmp_path, entry):
    path = tmp_path / "emb.txt"
    path.write_text(f"2 2\nalpha 1 2\nbeta 3 {entry}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="emb.txt:3: non-finite"):
        load_embedding_file(path)


# ---------------------------------------------------------------------------
# Checkpoints


def test_model_checkpoint_round_trip(tmp_path):
    index, params = random_corpus_params(36)
    path = tmp_path / "model.ckpt"
    save_model(path, params)
    loaded = load_model(path)
    assert loaded.config == params.config
    assert loaded.vocabulary == params.vocabulary
    assert np.array_equal(loaded.embedding, params.embedding)
    assert np.array_equal(loaded.term_weights, params.term_weights)
    assert len(loaded.layers) == len(params.layers)
    for a, b in zip(loaded.layers, params.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.activation == b.activation
    # scores from the reloaded model are bit-identical
    assert score(loaded, ("a",), ("b", "c")) == score(params, ("a",), ("b", "c"))
    path2 = tmp_path / "model2.ckpt"
    save_model(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_save_model_failing_partway_leaves_no_partial_file(tmp_path, monkeypatch):
    # the disk fills after the checkpoint's first write: save_model raises,
    # and no truncated file shows at the final name or as a temporary one
    _, params = random_corpus_params(36)
    real_open = open
    writes = []

    class FillingDisk:
        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

        def write(self, data):
            if writes:
                raise OSError(errno.ENOSPC, "No space left on device")
            writes.append(data)
            return self.fh.write(data)

    path = tmp_path / "model.ckpt"
    monkeypatch.setattr(serialize, "open", FillingDisk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_model(path, params)
    assert writes and list(tmp_path.iterdir()) == []
    # a complete checkpoint already there survives a failed overwrite
    monkeypatch.undo()
    save_model(path, params)
    complete = path.read_bytes()
    writes.clear()
    monkeypatch.setattr(serialize, "open", FillingDisk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_model(path, params)
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == complete


def test_load_model_rejects_format_version_1(tmp_path):
    # a version-1 checkpoint's config also held train_embeddings and
    # train_term_weights; it fails by its version, not as a TypeError of
    # RankModelConfig(**meta)
    _, params = random_corpus_params(36)
    path = tmp_path / "model.ckpt"
    save_model(path, params)
    meta, arrays = serialize.read_container(path, ranker.MODEL_MAGIC,
                                            ranker.MODEL_VERSION)
    meta["config"].update(train_embeddings=True, train_term_weights=True)
    serialize.write_container(path, ranker.MODEL_MAGIC, 1, meta, list(arrays.items()))
    with pytest.raises(ValueError, match="unsupported format version 1"):
        load_model(path)


def test_load_model_refuses_an_identity_layer(tmp_path):
    # relu and tanh are the only activations; a checkpoint naming another
    # one is refused, not read as a pass-through layer
    _, params = random_corpus_params(36)
    path = tmp_path / "model.ckpt"
    save_model(path, params)
    meta, arrays = serialize.read_container(path, ranker.MODEL_MAGIC,
                                            ranker.MODEL_VERSION)
    meta["activations"][0] = "identity"
    serialize.write_container(path, ranker.MODEL_MAGIC, ranker.MODEL_VERSION, meta,
                              list(arrays.items()))
    with pytest.raises(ValueError, match="unknown activation 'identity'"):
        load_model(path)


@pytest.mark.parametrize("name", ["embedding", "term_weights", "layer_bias_00"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_load_model_rejects_non_finite_parameters(tmp_path, name, value):
    # a teacher with NaN term weights labels every pair NaN
    _, params = random_corpus_params(37)
    target = params.layers[0].bias if name == "layer_bias_00" else getattr(params, name)
    target[0] = value
    path = tmp_path / "model.ckpt"
    save_model(path, params)
    with pytest.raises(ValueError, match=f"model.ckpt: non-finite {name}"):
        load_model(path)
