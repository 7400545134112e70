"""Representation, scoring, hinge loss, training, and ranking behavior."""

import copy
import dataclasses
import errno
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimicrank.corpus import (
    Document,
    TrainingInstance,
    Vocabulary,
    build_index,
    term_index_counts,
)
from mimicrank import nn, ranker, serialize
from mimicrank.nn import DenseLayer, finite_difference_check
from mimicrank.ranker import (
    RankModelConfig,
    RankModelParams,
    STUDENT_CONFIG,
    TEACHER_CONFIG,
    TrainingDiverged,
    compute_loss_and_grads,
    hinge_loss,
    init_params,
    load_embedding_file,
    load_model,
    rank_by_scores,
    represent,
    represent_rows,
    save_model,
    score,
    score_pool,
    train,
)


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
    instances = []
    for k in range(n):
        d1, d2 = (int(x) for x in rng.choice(index.doc_count, size=2, replace=False))
        instances.append(
            TrainingInstance(
                query_id=f"q{k}",
                doc1_id=index.doc_ids[d1],
                doc2_id=index.doc_ids[d2],
                s1=1.0 + k,
                s2=0.5,
                query_rows=term_index_counts(
                    index.vocabulary, rng.choice(list("abcdefgh"), size=2).tolist()),
                doc1_rows=index.doc_rows(d1),
                doc2_rows=index.doc_rows(d2),
            )
        )
    return instances


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


# ---------------------------------------------------------------------------
# Scoring


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


# ---------------------------------------------------------------------------
# Hinge loss


NO_ROWS = (np.empty(0, dtype=np.int64), np.empty(0))  # the hinge reads only labels


def make_instance(s1, s2):
    return TrainingInstance("q", "d1", "d2", s1, s2, NO_ROWS, NO_ROWS, NO_ROWS)


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
    object.__setattr__(bad, "query_rows", NO_ROWS)
    object.__setattr__(bad, "doc1_rows", NO_ROWS)
    object.__setattr__(bad, "doc2_rows", NO_ROWS)
    with pytest.raises(ValueError, match="tied"):
        hinge_loss([good, bad], (np.array([0.1, 0.2]), np.array([0.0, 0.1])))


def test_hinge_nonnegative_random():
    rng = np.random.default_rng(1)
    insts = [make_instance(2.0, 1.0), make_instance(0.0, 3.0), make_instance(5.0, -1.0)]
    for _ in range(25):
        s1 = rng.uniform(-1, 1, 3)
        s2 = rng.uniform(-1, 1, 3)
        assert hinge_loss(insts, (s1, s2)) >= 0.0


# ---------------------------------------------------------------------------
# End-to-end gradients (the module's central correctness property)


def test_end_to_end_gradient_check():
    index, params = random_corpus_params(26)
    rng = np.random.default_rng(4)
    batch = random_instances(index, rng, 4)

    def loss_fn():
        return compute_loss_and_grads(params, batch)[0]

    loss, grads = compute_loss_and_grads(params, batch)
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
    _, grads = compute_loss_and_grads(params, batch)
    assert np.abs(grads["d_embedding"]).sum() > 0
    assert np.abs(grads["d_term_weights"]).sum() > 0
    for dw in grads["d_layer_weights"]:
        assert np.abs(dw).sum() > 0


def per_row_loss_and_grads(params, batch, train=False, rng=None):
    """Reference for compute_loss_and_grads without a count matrix.

    Each (instance, row) is represented on its own, each side enters the
    stack as [q ‖ d], and each (instance, row) gradient is scattered back
    into the embedding and term weights alone.
    """
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
    keep = params.config.dropout_keep if train else 1.0
    out1, cache1 = nn.forward(params.layers, x1, dropout_keep=keep, train=train, rng=rng)
    out2, cache2 = nn.forward(params.layers, x2, dropout_keep=keep, train=train, rng=rng)
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

    dx1, dx2 = store1.d_input, store2.d_input
    for i in range(n):
        scatter(q_rows[i], dx1[i, :m] + dx2[i, :m])
        scatter(d1_rows[i], dx1[i, m:])
        scatter(d2_rows[i], dx2[i, m:])
    return float(np.maximum(0.0, margins).mean()), {
        "d_embedding": d_embedding,
        "d_term_weights": d_term_weights,
        "d_layer_weights": [a + b for a, b in zip(store1.d_weights, store2.d_weights)],
        "d_layer_biases": [a + b for a, b in zip(store1.d_biases, store2.d_biases)],
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
    batch = [
        TrainingInstance(f"q{k}", index.doc_ids[d1], index.doc_ids[d2],
                         float(rng.choice([-1.0, 1.0])) * (k + 1), 0.0,
                         term_index_counts(index.vocabulary, text.split()),
                         index.doc_rows(d1), index.doc_rows(d2))
        for k, (text, d1, d2) in enumerate(pairs)
    ]
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
    got = compute_loss_and_grads(params, batch)
    assert got[0] > 0.0
    assert np.abs(got[1]["d_embedding"]).sum() > 0.0
    assert_same_loss_and_grads(got, per_row_loss_and_grads(params, batch))
    # single instances and the batch minus its empty-row instances
    for sub in ([batch[2]], [batch[0]], [inst for inst in batch if "empty" not in
                                         (inst.doc1_id, inst.doc2_id)]):
        assert_same_loss_and_grads(compute_loss_and_grads(params, sub),
                                   per_row_loss_and_grads(params, sub))


def test_count_blocks_grow_with_nonzeros_not_vocabulary():
    # rows over a million-term vocabulary: each block's C is dense over its
    # own terms only, and together the blocks hold exactly the rows
    rng = np.random.default_rng(0)
    rows = []
    for k in range(150):
        idx = np.unique(rng.integers(0, 1_000_000, size=k % 7))
        rows.append((idx, rng.integers(1, 4, size=idx.size)))
    seen = 0
    for first, u, counts in ranker._count_blocks(rows):
        part = rows[first:first + ranker._BLOCK_ROWS]
        assert counts.shape == (len(part), u.size)
        assert u.size <= sum(idx.size for idx, _ in part)
        for i, (idx, c) in enumerate(part):
            np.testing.assert_array_equal(u[counts[i] > 0], idx)
            np.testing.assert_array_equal(counts[i][counts[i] > 0], c)
        seen += len(part)
    assert seen == len(rows)


def test_count_matrix_keeps_the_dropout_mask_stream():
    params, batch = count_matrix_batch(3, dropout_keep=0.7)
    got = compute_loss_and_grads(params, batch, train=True, rng=np.random.default_rng(5))
    want = per_row_loss_and_grads(params, batch, train=True, rng=np.random.default_rng(5))
    assert got[0] == want[0]
    assert_same_loss_and_grads(got, want)


# instance k's query is texts[groups[k]]; one group shares one rows object
@pytest.mark.parametrize("groups, texts", [
    ([0] * 8, ["a a b"]),
    ([2, 0, 2, 1, 2, 2, 1, 2], ["c", "e e f", "f g a"]),
    ([0, 1, 2, 2, 3, 4, 5, 6], ["h h a", "h h a", "b d", "zzz", "a g", "c", "e e f"]),
], ids=["one-query", "1-2-5-instances", "equal-rows-distinct-objects"])
@pytest.mark.parametrize("keep", [1.0, 0.7])
def test_shared_queries_match_per_row_reference(groups, texts, keep, monkeypatch):
    params, batch = count_matrix_batch(4, dropout_keep=keep)
    shared = [term_index_counts(params.vocabulary, text.split()) for text in texts]
    batch = [dataclasses.replace(inst, query_rows=shared[g])
             for inst, g in zip(batch, groups)]
    blocks = ranker._count_blocks
    row_counts = []

    def spy(rows):
        row_counts.append(len(rows))
        return blocks(rows)

    monkeypatch.setattr(ranker, "_count_blocks", spy)
    train = keep < 1.0
    got = compute_loss_and_grads(params, batch, train=train,
                                 rng=np.random.default_rng(6) if train else None)
    # each distinct rows object once, equal but distinct objects apart,
    # then the batch's 5 distinct documents
    assert row_counts == [len(texts) + 5]
    want = per_row_loss_and_grads(params, batch, train=train,
                                  rng=np.random.default_rng(6) if train else None)
    assert got[0] > 0.0
    assert_same_loss_and_grads(got, want)


# (query, doc1, doc2) per instance: queries index the test's three query
# texts, documents the five documents of count_matrix_batch, 1 being empty
@pytest.mark.parametrize("pairs", [
    [(0, 0, 2), (1, 2, 3), (2, 4, 0), (0, 3, 4)],
    [(0, 3, 0), (1, 2, 3), (2, 3, 4), (1, 0, 2)],
    [(0, 2, 2), (1, 0, 4), (2, 4, 4)],
    [(0, 1, 3), (1, 2, 1), (2, 1, 0), (0, 4, 2)],
], ids=["doc1-and-doc2", "three-queries", "doc1-is-doc2", "empty-row"])
@pytest.mark.parametrize("keep", [1.0, 0.7])
def test_shared_documents_match_per_row_reference(pairs, keep, monkeypatch):
    params, batch = count_matrix_batch(5, dropout_keep=keep)
    ids = ["rep", "empty", "x", "y", "z"]
    index_rows = {}
    for inst in batch:
        index_rows[inst.doc1_id], index_rows[inst.doc2_id] = inst.doc1_rows, inst.doc2_rows
    queries = [term_index_counts(params.vocabulary, text.split())
               for text in ("a a b", "c", "e e f")]

    def rows(d):  # a fresh copy per slot: documents are grouped by id
        return tuple(a.copy() for a in index_rows[ids[d]])

    batch = [TrainingInstance(f"q{q}", ids[d1], ids[d2], (-1.0) ** k * (k + 1), 0.0,
                              queries[q], rows(d1), rows(d2))
             for k, (q, d1, d2) in enumerate(pairs)]
    blocks = ranker._count_blocks
    row_counts = []

    def spy(block_rows):
        row_counts.append(len(block_rows))
        return blocks(block_rows)

    monkeypatch.setattr(ranker, "_count_blocks", spy)
    train = keep < 1.0
    got = compute_loss_and_grads(params, batch, train=train,
                                 rng=np.random.default_rng(7) if train else None)
    distinct_queries = len({q for q, _, _ in pairs})
    distinct_docs = len({d for _, d1, d2 in pairs for d in (d1, d2)})
    assert row_counts == [distinct_queries + distinct_docs]
    want = per_row_loss_and_grads(params, batch, train=train,
                                  rng=np.random.default_rng(7) if train else None)
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
    inst = TrainingInstance("q", "d0", "d1", 2.0, 1.0,
                            term_index_counts(index.vocabulary, ("apple",)),
                            index.doc_rows(0), index.doc_rows(1))
    return cfg, params, inst


def test_train_zero_epochs_is_identity():
    cfg, params, inst = separable_setup()
    before = copy.deepcopy(params)
    result = train(params, cfg, [inst], epochs=0, seed=1)
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
    cfg, params, inst = separable_setup()
    trace = train(params, cfg, [inst], epochs=60, seed=11).epoch_losses
    assert trace[-1] < 0.05
    for earlier, later in zip(trace, trace[1:]):
        assert later <= earlier + 1e-12


def test_train_rejects_empty_instances():
    cfg, params, _ = separable_setup()
    with pytest.raises(ValueError):
        train(params, cfg, [], epochs=1, seed=0)


def test_train_rejects_negative_epochs():
    # -2 epochs used to return the untrained model with an empty loss list
    cfg, params, inst = separable_setup()
    with pytest.raises(ValueError, match="epochs must be non-negative, got -2"):
        train(params, cfg, [inst], epochs=-2, seed=0)


def test_train_aborts_on_divergence_naming_the_epoch():
    cfg, params, inst = separable_setup()
    params.embedding[:] = np.nan
    with pytest.raises(TrainingDiverged) as excinfo:
        train(params, cfg, [inst], epochs=3, seed=0)
    assert excinfo.value.epoch == 0


# ---------------------------------------------------------------------------
# Ranking


def scored(params, query_terms, candidates):
    return [(doc_id, score(params, query_terms, terms)) for doc_id, terms in candidates]


def test_rank_by_scores_rejects_cutoff_below_one():
    pairs = [("a", 0.5), ("b", 0.7), ("c", 0.1)]
    for cutoff in (0, -1, -3):
        with pytest.raises(ValueError, match="cutoff must be at least 1"):
            rank_by_scores(pairs, cutoff)
    assert [d for d, _ in rank_by_scores(pairs, None)] == ["b", "a", "c"]
    assert rank_by_scores(pairs, 1) == [("b", 0.7)]


def test_rank_single_candidate():
    _, params = random_corpus_params(29)
    out = rank_by_scores(scored(params, ("a",), [("dX", ("b", "c"))]), None)
    assert len(out) == 1
    assert out[0][0] == "dX"


def test_rank_zero_params_sorts_by_doc_id():
    _, params = random_corpus_params(30)
    for layer in params.layers:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    cands = [("dz", ("a",)), ("da", ("b",)), ("dm", ("c",))]
    out = rank_by_scores(scored(params, ("a",), cands), None)
    assert [doc_id for doc_id, _ in out] == ["da", "dm", "dz"]
    assert all(s == 0.0 for _, s in out)


def test_rank_input_order_invariance():
    _, params = random_corpus_params(31)
    cands = [("d1", ("a", "b")), ("d2", ("c",)), ("d3", ("d", "e")), ("d4", ("f",))]
    fwd = rank_by_scores(scored(params, ("a", "c"), cands), None)
    rev = rank_by_scores(scored(params, ("a", "c"), list(reversed(cands))), None)
    assert fwd == rev


def test_rank_cutoff():
    _, params = random_corpus_params(32)
    cands = [(f"d{i}", ("a", "b")) for i in range(5)]
    assert len(rank_by_scores(scored(params, ("a",), cands), 3)) == 3


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
