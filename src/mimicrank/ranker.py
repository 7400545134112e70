"""Weighted bag-of-embeddings ranker trained with a pairwise hinge loss.

A query or document is represented as the weighted sum of its term
embeddings (per-term scalar weights initialized from IDF). The scorer is a
dense ReLU stack over [query repr ‖ doc repr] ending in a single tanh unit,
trained on score-labeled document pairs and applied pointwise at inference,
where candidate pools go through the stack in padded forwards whose scores
do not depend on the rows forwarded together.
"""

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nn, seeding
from .serialize import read_container, write_container
from .corpus import Vocabulary, term_index_counts

MODEL_MAGIC = b"MRMD"
MODEL_VERSION = 2  # version 1 configs also held two trainability flags


@dataclass(frozen=True)
class RankModelConfig:
    embedding_dim: int = 500
    hidden_layers: int = 3
    hidden_size: int = 512
    dropout_keep: float = 0.8
    learning_rate: float = 1e-3
    batch_size: int = 512

    def __post_init__(self):
        for name in ("embedding_dim", "hidden_layers", "hidden_size", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"got {self.learning_rate!r}")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ValueError("dropout_keep must be in (0, 1]")


TEACHER_CONFIG = RankModelConfig(
    embedding_dim=500, hidden_layers=3, hidden_size=512, dropout_keep=0.8,
    learning_rate=1e-3, batch_size=512,
)
STUDENT_CONFIG = RankModelConfig(
    embedding_dim=300, hidden_layers=3, hidden_size=128, dropout_keep=0.9,
    learning_rate=1e-3, batch_size=512,
)


@dataclass
class RankModelParams:
    config: RankModelConfig
    vocabulary: Vocabulary
    embedding: np.ndarray  # (|V|, m)
    term_weights: np.ndarray  # (|V|,)
    layers: list

    def __post_init__(self):
        m = self.config.embedding_dim
        if self.embedding.shape != (len(self.vocabulary), m):
            raise ValueError(
                f"embedding shape {self.embedding.shape} != "
                f"({len(self.vocabulary)}, {m})"
            )
        if self.term_weights.shape != (len(self.vocabulary),):
            raise ValueError("term_weights must have one entry per vocabulary term")
        if self.layers[0].in_dim != 2 * m:
            raise ValueError(
                f"first dense layer expects {self.layers[0].in_dim} inputs, "
                f"need {2 * m} (query repr ‖ doc repr)"
            )
        if self.layers[-1].out_dim != 1 or self.layers[-1].activation != "tanh":
            raise ValueError("output layer must be a single tanh unit")


class TrainingDiverged(RuntimeError):
    """Raised when a training step produces a non-finite loss in epoch `epoch`."""

    def __init__(self, message, epoch):
        super().__init__(message)
        self.epoch = epoch


# Representations are built this many rows at a time: few enough that a
# block's count matrix stays small over a large vocabulary, enough that it
# is dense enough for BLAS over a small one (64 measured best of 16 to 128).
_BLOCK_ROWS = 64


class _RowTable(NamedTuple):
    """(term indices, counts) rows in CSR form, over dense term numbers.

    Row r holds entries offsets[r]:offsets[r + 1]. term_of lists the
    table's term indices, ascending, and terms[i] is entry i's position in
    term_of, so the numbering keeps the order of the indices.
    """

    offsets: np.ndarray
    terms: np.ndarray
    counts: np.ndarray
    term_of: np.ndarray


def _row_table(rows):
    """The _RowTable of a list of (term indices, counts) rows.

    term_of holds exactly the rows' distinct indices. The term numbers come
    from sorting the indices and an uninitialised table indexed by term,
    written and read only at those indices; negative indices, which no
    vocabulary has, land past the largest one.
    """
    if not rows:
        return _RowTable(np.zeros(1, dtype=np.intp), np.empty(0, dtype=np.intp),
                         np.empty(0), np.empty(0, dtype=np.int64))
    idxs, cnts = zip(*rows)
    offsets = np.fromiter(itertools.accumulate(map(len, idxs), initial=0), np.intp,
                          len(idxs) + 1)
    indices = np.concatenate(idxs)
    ordered = np.sort(indices)
    distinct = np.empty(ordered.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    term_of = ordered[distinct]
    span = int(ordered[-1]) + 1 - min(int(ordered[0]), 0) if ordered.size else 0
    number = np.empty(span, dtype=np.intp)
    number[term_of] = np.arange(term_of.size)
    return _RowTable(offsets, number[indices], np.concatenate(cnts), term_of)


def _count_blocks(table, rows=None):
    """(first, terms u, counts C) for each block of _BLOCK_ROWS rows.

    The rows are the table rows that rows lists, or every table row in
    order. C is dense over the block's distinct term indices u, ascending:
    C[i, j] is the count of u[j] in the block's row i. A block has at most
    _BLOCK_ROWS times its nonzeros entries, so the work and memory of
    C @ X and Cᵀ @ Y grow with the rows' nonzeros, whatever the size of
    the vocabulary. The rows' entries are gathered in one pass. A block's
    u comes from a presence table over the table's term numbers, set and
    cleared only at the block's terms; a _row_table that is one block
    already numbers exactly its terms.
    """
    if rows is None:
        offsets = table.offsets
        lengths = offsets[1:] - offsets[:-1]
        if lengths.size <= _BLOCK_ROWS:
            block = np.zeros((lengths.size, table.term_of.size))
            block[np.arange(lengths.size).repeat(lengths), table.terms] = table.counts
            yield 0, table.term_of, block
            return
    else:
        starts = table.offsets[rows]
        lengths = table.offsets[rows + 1] - starts
        offsets = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        entries = np.arange(offsets[-1]) + (starts - offsets[:-1]).repeat(lengths)
        table = _RowTable(offsets, table.terms[entries], table.counts[entries],
                          table.term_of)
    n_rows = lengths.size
    row_of = (np.arange(n_rows) % _BLOCK_ROWS).repeat(lengths)
    present = np.zeros(table.term_of.size, dtype=bool)
    column = np.empty(table.term_of.size, dtype=np.intp)
    for first in range(0, n_rows, _BLOCK_ROWS):
        last = min(first + _BLOCK_ROWS, n_rows)
        lo, hi = int(offsets[first]), int(offsets[last])
        terms = table.terms[lo:hi]
        present[terms] = True
        u = present.nonzero()[0]
        present[u] = False
        column[u] = np.arange(u.size)
        block = np.zeros((last - first, u.size))
        block[row_of[lo:hi], column[terms]] = table.counts[lo:hi]
        yield first, table.term_of[u], block


def _represent_blocks(params, blocks, n_rows):
    """The n_rows representations of _count_blocks' blocks: (C·ω[u]) @ ε[u] each."""
    out = np.empty((n_rows, params.config.embedding_dim))
    for first, u, counts in blocks:
        out[first:first + len(counts)] = (
            (counts * params.term_weights[u]) @ params.embedding[u])
    return out


def represent_rows(params, rows):
    """Bag-of-embeddings matrix, one row per (term indices, counts) pair.

    Each row is Σ count(t)·ω(t)·ε(t) over its terms; no terms give zeros.
    Rows are InvertedIndex.doc_rows views or term_index_counts output; their
    int64 and float64 counts give the same floats. The rows go through the
    count-matrix blocks that training uses (_count_blocks), whose floats
    can depend in the last bits on the rows blocked together; so a caller
    that needs a row's bits fixed gives it fixed companions, as pool_scorer
    does with its index-aligned blocks, or represents it alone.

    A lone row whose indices strictly increase, as both kinds do, is
    already its own block, with the block path's bits: its indices are
    the block's terms and its counts the block's one row.
    """
    if len(rows) == 1:
        idx, counts = rows[0]
        if (idx[1:] > idx[:-1]).all():
            block = (0, idx, np.asarray(counts, dtype=np.float64)[None, :])
            return _represent_blocks(params, [block], 1)
    return _represent_blocks(params, _count_blocks(_row_table(rows)), len(rows))


def _first_appearance(keys):
    """Number keys by first appearance: returns (firsts, which).

    firsts[j] is the position of key j's first appearance, ascending, and
    which[i] is the number of keys[i].
    """
    _, firsts, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = firsts.argsort()
    number = np.empty_like(rank)
    number[rank] = np.arange(rank.size)
    return firsts[rank], number[inverse]


def _group_sums(blocks, which, n_groups):
    """Row sums per group of the rows of blocks, taken as one stack of rows:
    row j sums the stacked rows i with which[i] == j.

    which numbers groups 0..n_groups-1 (_first_appearance), so every
    group has a row. A group's rows are summed in order of position: the
    sums start from each group's first row, and pass r adds every group's
    r-th repeat at once (a fancy-index add, since no group repeats within
    a pass).
    The blocks are not stacked: each takes its passes in turn, which keeps
    every group's order, since a group's rows in one block all come before
    its rows in the next.
    """
    order = np.argsort(which, kind="stable")
    starts = np.searchsorted(which[order], np.arange(n_groups))
    repeat = np.empty_like(which)
    repeat[order] = np.arange(len(which)) - starts[which[order]]
    passes = np.arange(int(repeat.max()) + 2)
    out = np.empty((n_groups,) + blocks[0].shape[1:])
    end = 0
    for values in blocks:
        first, end = end, end + len(values)
        # the block's rows pass by pass, in order of position within a pass
        rows = np.argsort(repeat[first:end], kind="stable")
        groups = which[first:end][rows]
        cuts = np.searchsorted(repeat[first:end][rows], passes).tolist()
        out[groups[:cuts[1]]] = values[rows[:cuts[1]]]
        for lo, hi in zip(cuts[1:], cuts[2:]):
            if lo < hi:
                out[groups[lo:hi]] += values[rows[lo:hi]]
    return out


def _layer0_halves(params):
    """Layer 0's weights W0 = [W_q; W_d]: its query and document halves."""
    m = params.config.embedding_dim
    weights = params.layers[0].weights
    return weights[:m], weights[m:]


def _pre_activation(params, doc_half, query_half, which):
    """Layer 0's pre-activation D·W_d + (Q·W_q)[which] + b0, summed in that order.

    doc_half is D·W_d, one row per scored row, and is written to and
    returned; query_half is Q·W_q, one row per distinct query, and which[i]
    is row i's query. Every model score and training step forms layer 0
    here and enters the stack, nn.forward, with it.
    """
    doc_half += query_half[which]
    doc_half += params.layers[0].bias
    return doc_half


# Every inference forward runs on a multiple of _PAD_ROWS rows, at most
# _FORWARD_ROWS at a time. OpenBLAS picks a product's kernels by its row
# count: in the one-column output layer the rows after the last multiple
# of 4 take another path, and in the wide layers a product of 1 to 3 rows
# does. Padded, a row gets the same bits in every forward, so a score does
# not depend on the rows scored with it. A multiple of 4 suffices on the
# Haswell kernels measured; 8 also covers kernels that work 8 rows at once.
_PAD_ROWS = 8
_FORWARD_ROWS = 1024  # a multiple of _PAD_ROWS; bounds a forward's memory


def _infer(params, doc_half, docs, query_half, queries):
    """Scores in (−1, 1) of the rows doc_half[docs[i]] + query_half[queries[i]] + b0.

    doc_half holds D·W_d rows and query_half Q·W_q rows (_pre_activation
    sums them). Every inference forward runs here, without dropout and
    without a cache: the rows are padded with repeats of row 0, whose
    scores are dropped, and go through the stack in chunks. Row i's score
    depends only on its pre-activation, for a fixed BLAS build and thread
    count.
    """
    n = len(docs)
    rows = np.arange(n + -n % _PAD_ROWS)
    rows[n:] = 0
    out = np.empty(len(rows))
    for first in range(0, len(rows), _FORWARD_ROWS):
        chunk = rows[first:first + _FORWARD_ROWS]
        scores, _ = nn.forward(
            params.layers,
            _pre_activation(params, doc_half[docs[chunk]], query_half, queries[chunk]),
            cache=False)
        out[first:first + len(chunk)] = scores[:, 0]
    return out[:n]


def pool_scorer(params, index):
    """scores(queries_terms, pools) of one frozen model over one index's pools.

    pools[i] holds index positions of documents, scored against the terms
    queries_terms[i]; scores returns one array per pool, a score per
    position in pool order, all from one _infer call, and scores.rows takes
    each query as its term_index_counts row instead. The scorer owns a
    table of D·W_d rows, one per index document, filled lazily in blocks
    of _BLOCK_ROWS consecutive index positions: a call fills the blocks its
    pools touch that are not filled yet, each with one represent_rows call
    and one product with W_d. Each query is represented alone and meets W_q
    alone; a pool's rows are table[pool] + q·W_q + b0.

    A document's row always comes from the same block, so a score depends
    only on the model, the index, the query and the document, for a fixed
    BLAS build and thread count: not on the pool, its order, the other
    pools of the call or the calls before it. The table is the scorer's,
    not the model's: build a new scorer after the model's weights change.
    A model whose vocabulary differs from the index's raises ValueError
    here.
    """
    check_index_vocabulary(params, index)
    table = np.empty((index.doc_count, params.layers[0].out_dim))
    filled = np.zeros(-(-index.doc_count // _BLOCK_ROWS), dtype=bool)

    def rows(query_rows, pools):
        if len(query_rows) != len(pools):
            raise ValueError(f"{len(query_rows)} queries for {len(pools)} pools")
        pools = [np.asarray(pool, dtype=np.intp) for pool in pools]
        if not pools:
            return []
        w_q, w_d = _layer0_halves(params)
        docs = np.concatenate(pools)
        blocks = np.unique(docs // _BLOCK_ROWS)
        for first in (blocks[~filled[blocks]] * _BLOCK_ROWS).tolist():
            last = min(first + _BLOCK_ROWS, index.doc_count)
            table[first:last] = represent_rows(
                params, list(map(index.doc_rows, range(first, last)))) @ w_d
        filled[blocks] = True
        query_half = np.concatenate([represent_rows(params, [query]) @ w_q
                                     for query in query_rows])
        sizes = [pool.size for pool in pools]
        out = _infer(params, table, docs, query_half, np.arange(len(pools)).repeat(sizes))
        ends = list(itertools.accumulate(sizes))
        return [out[end - size:end] for end, size in zip(ends, sizes)]

    def scores(queries_terms, pools):
        return rows([term_index_counts(params.vocabulary, terms) for terms in queries_terms],
                    pools)

    scores.rows = rows
    return scores


def score(params, query_terms, doc_terms):
    """Pointwise score in (−1, 1) of one (query, document) pair, each
    represented alone: the bits of a one-document pool."""
    w_q, w_d = _layer0_halves(params)
    query, doc = (represent_rows(params, [term_index_counts(params.vocabulary, terms)])
                  for terms in (query_terms, doc_terms))
    row = np.zeros(1, dtype=np.intp)
    return float(_infer(params, doc @ w_d, row, query @ w_q, row)[0])


def check_index_vocabulary(params, index):
    """Raise ValueError unless the model indexes terms as the index does."""
    if params.vocabulary != index.vocabulary:
        raise ValueError(
            f"model vocabulary ({len(params.vocabulary)} terms) differs from "
            f"the index vocabulary ({len(index.vocabulary)} terms); the model "
            "was built on another index"
        )


class _PairColumns(NamedTuple):
    """Training pairs as columns over one table of distinct rows.

    slots[0, i] is pair i's query row in table, slots[1, i] and slots[2, i]
    its documents' rows, and sign[i] is +1.0 where s1 > s2, else -1.0. The
    table holds the pair set's queries that have pairs, by query number,
    then its documents that are in pairs, by index position.
    """

    slots: np.ndarray  # (3, n) table rows
    sign: np.ndarray  # (n,)
    table: _RowTable


def _pair_columns(pairs, n_terms):
    """The _PairColumns of a corpus.PairSet.

    Raises ValueError, naming the query or document, if a row holds a term
    index outside 0..n_terms-1: a negative one would silently read the
    last term's weight and embedding.
    """
    queries, query_slot = np.unique(pairs.query, return_inverse=True)
    docs, doc_slot = np.unique(np.concatenate([pairs.doc1, pairs.doc2]), return_inverse=True)
    slots = np.concatenate([query_slot, doc_slot + queries.size]).reshape(3, -1)
    sign = np.where(pairs.s1 > pairs.s2, 1.0, -1.0)
    queries, docs = queries.tolist(), docs.tolist()
    rows = [pairs.query_rows[q] for q in queries] + list(map(pairs.index.doc_rows, docs))
    table = _row_table(rows)
    if table.term_of.size and (table.term_of[0] < 0 or table.term_of[-1] >= n_terms):
        names = ([f"query {pairs.query_ids[q]!r}" for q in queries]
                 + [f"document {pairs.index.doc_ids[d]!r}" for d in docs])
        for name, (idx, _) in zip(names, rows):
            outside = idx[(idx < 0) | (idx >= n_terms)]
            if outside.size:
                raise ValueError(f"{name} holds term index {outside[0]}, "
                                 f"outside a vocabulary of {n_terms} terms")
    return _PairColumns(slots, sign, table)


def compute_loss_and_grads(params, batch, rng=None):
    """Shared-parameter forward on (q,d1) and (q,d2), hinge loss, gradients.

    batch is a _PairColumns of some pairs; its rows must index
    params.vocabulary. A batch represents each distinct query and each
    distinct document once: its slots are numbered by first appearance
    (_first_appearance), the queries first, then the doc1 side, then the
    doc2 side. The k distinct query rows, then the u distinct document
    rows, are split into count-matrix blocks (_count_blocks): a block's
    representations are (C·ω[u]) @ ε[u], and its representation gradients
    G come back as Cᵀ @ G, summed into A over the batch, so d_embedding =
    ω·A and d_term_weights is the row sums of ε∘A.

    Layer 0 is split as W0 = [W_q; W_d]: P_q = Q·W_q runs once per query
    and P_d = D·W_d once per document, and each side's pre-activation is
    P_d[slot] + P_q[query] + b0 (_pre_activation). Layers 1 and up run
    once per side on n rows. Backward sums the pre-activation gradients
    per query and per document (_group_sums) before they meet W_q and
    W_d. Returns (loss, grads) where grads is a dict with d_embedding,
    d_term_weights, d_layer_weights and d_layer_biases (one array per
    layer). Dropout runs at params.config.dropout_keep, so a keep rate
    below 1 needs rng; forward 1 draws all of its masks, then forward 2.
    """
    n = batch.sign.size
    # queries and documents are distinct table rows and the n query slots
    # come first, so numbers 0..k-1 are the batch's queries, k.. its documents
    keys = batch.slots.ravel()
    firsts, which = _first_appearance(keys)
    rows = keys[firsts]
    k = int(which[n])  # the first document's number is the number of queries
    blocks = list(_count_blocks(batch.table, rows))
    reps = _represent_blocks(params, blocks, len(rows))
    q_reps, d_reps = reps[:k], reps[k:]

    w_q, w_d = _layer0_halves(params)
    p_q, p_d = q_reps @ w_q, d_reps @ w_d
    query, doc1, doc2 = which[:n], which[n:2 * n] - k, which[2 * n:] - k
    keep = params.config.dropout_keep
    out1, cache1 = nn.forward(params.layers, _pre_activation(params, p_d[doc1], p_q, query),
                              keep, rng)
    out2, cache2 = nn.forward(params.layers, _pre_activation(params, p_d[doc2], p_q, query),
                              keep, rng)
    del p_d
    big_s1, big_s2 = out1[:, 0], out2[:, 0]

    sign = batch.sign
    margins = 1.0 - sign * (big_s1 - big_s2)
    active = margins > 0.0  # subgradient 0 exactly at the kink
    loss = float(np.maximum(0.0, margins).mean())

    d_s1 = np.where(active, -sign, 0.0) / n
    d_s2 = np.where(active, sign, 0.0) / n
    # backward releases each side's activations as it reads them
    store1 = nn.backward(cache1, d_s1[:, None])
    store2 = nn.backward(cache2, d_s2[:, None])

    # side 2's layer gradients are added into side 1's arrays
    d_layers_w, d_layers_b = store1.d_weights, store1.d_biases
    for mine, theirs in zip(d_layers_w[1:] + d_layers_b[1:],
                            store2.d_weights[1:] + store2.d_biases[1:]):
        mine += theirs
    dz1, dz2 = store1.d_input, store2.d_input
    del store1, store2
    # per-query sums of dz1 + dz2, then per-document sums over the doc1
    # rows and the doc2 rows
    sums = _group_sums([dz1 + dz2, dz1, dz2], which, len(rows))
    s_q, s_d = sums[:k], sums[k:]
    d_layers_b[0] = dz1.sum(axis=0) + dz2.sum(axis=0)
    del dz1, dz2
    d_layers_w[0] = np.empty_like(params.layers[0].weights)
    np.matmul(q_reps.T, s_q, out=d_layers_w[0][:len(w_q)])
    np.matmul(d_reps.T, s_d, out=d_layers_w[0][len(w_q):])

    d_reps = np.empty_like(reps)
    np.matmul(s_q, w_q.T, out=d_reps[:k])
    np.matmul(s_d, w_d.T, out=d_reps[k:])
    d_embedding = np.zeros_like(params.embedding)
    for first, u, counts in blocks:
        d_embedding[u] += counts.T @ d_reps[first:first + len(counts)]
    d_term_weights = np.einsum("ij,ij->i", params.embedding, d_embedding)
    d_embedding *= params.term_weights[:, None]  # rows of unused terms stay 0

    grads = {
        "d_embedding": d_embedding,
        "d_term_weights": d_term_weights,
        "d_layer_weights": d_layers_w,
        "d_layer_biases": d_layers_b,
    }
    return loss, grads


def _trainable(params):
    """The arrays the optimizer updates, in a fixed order."""
    arrays = [params.embedding, params.term_weights]
    for layer in params.layers:
        arrays += [layer.weights, layer.bias]
    return arrays


def _grad_list(grads):
    """compute_loss_and_grads' gradients in _trainable's order."""
    out = [grads["d_embedding"], grads["d_term_weights"]]
    for dw, db in zip(grads["d_layer_weights"], grads["d_layer_biases"]):
        out += [dw, db]
    return out


@dataclass
class TrainResult:
    params: RankModelParams
    epoch_losses: list


def train(params, config, instances, epochs, seed):
    """Seeded epoch shuffles, fixed-size batches (last partial kept), Adam.

    The corpus.PairSet instances becomes pair columns once (_pair_columns),
    which checks every term index against the vocabulary before any
    update; each batch is one compute_loss_and_grads step on its columns,
    which represents the batch's distinct queries and documents once.
    Mutates params in place and also returns them. A non-finite loss
    aborts with TrainingDiverged naming its epoch; params then hold every
    update before the failed step, and no snapshot is kept. epochs 0
    trains nothing; a negative count raises ValueError.
    """
    if not instances:
        raise ValueError("no training pairs")
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    columns = _pair_columns(instances, len(params.vocabulary))
    arrays = _trainable(params)
    state = nn.adam_state(arrays, learning_rate=config.learning_rate)
    epoch_losses = []
    n = len(instances)
    for epoch in range(epochs):
        order = seeding.rng(seed, epoch, 0).permutation(n)
        dropout_rng = seeding.rng(seed, epoch, 1)
        total = 0.0
        for start in range(0, n, config.batch_size):
            pairs = order[start:start + config.batch_size]
            batch = columns._replace(slots=columns.slots[:, pairs], sign=columns.sign[pairs])
            loss, grads = compute_loss_and_grads(params, batch, dropout_rng)
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}", epoch
                )
            total += loss * batch.sign.size
            nn.optimizer_step(arrays, _grad_list(grads), state)
            del grads  # not held through the next step's forward and backward
        epoch_losses.append(total / n)
    return TrainResult(params, epoch_losses)


# ---------------------------------------------------------------------------
# Initialization


def load_embedding_file(path):
    """Text embeddings: optional `<count> <dim>` header, then `token v1..vm`.

    Returns (dict token -> vector, dim).
    """
    vectors = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            parts = [p for p in parts if p]
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue  # header line
                except ValueError:
                    pass
            token, values = parts[0], parts[1:]
            try:
                vec = np.array([float(v) for v in values])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed vector") from exc
            if not np.isfinite(vec).all():
                raise ValueError(f"{path}:{lineno}: non-finite vector entry")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ValueError(
                    f"{path}:{lineno}: dimension {vec.size} != {dim}"
                )
            vectors[token] = vec
    return vectors, dim


def init_params(config, vocabulary, index, embedding_file=None, seed=0):
    """Random ±0.1 embeddings overridden by file vectors; ω from IDF.

    The embedding file, when given, must match config.embedding_dim exactly;
    tokens absent from the file keep their random rows.
    """
    emb_rng = seeding.rng(seed, 0)
    dense_rng = seeding.rng(seed, 1)
    n_vocab = len(vocabulary)
    embedding = emb_rng.uniform(-0.1, 0.1, size=(n_vocab, config.embedding_dim))
    if embedding_file is not None:
        vectors, dim = load_embedding_file(embedding_file)
        if dim is not None and dim != config.embedding_dim:
            raise ValueError(
                f"embedding file dimension {dim} != configured "
                f"{config.embedding_dim}"
            )
        for t, term in enumerate(vocabulary.terms):
            vec = vectors.get(term)
            if vec is not None:
                embedding[t] = vec
    term_weights = np.array([index.idf(term) for term in vocabulary.terms])
    dims = [2 * config.embedding_dim] + [config.hidden_size] * config.hidden_layers + [1]
    acts = ["relu"] * config.hidden_layers + ["tanh"]
    layers = nn.init_layers(dims, acts, dense_rng)
    return RankModelParams(
        config=config,
        vocabulary=vocabulary,
        embedding=embedding,
        term_weights=term_weights,
        layers=layers,
    )


# ---------------------------------------------------------------------------
# Checkpoints


def model_arrays(params):
    """(name, array) of every array a checkpoint holds, in its order."""
    return [("embedding", params.embedding), ("term_weights", params.term_weights),
            *nn.layers_to_arrays(params.layers)]


def save_model(path, params):
    """Write a checkpoint; returns the SHA-256 hex digest of its bytes."""
    meta = {
        "kind": "rank-model",
        "config": dataclasses.asdict(params.config),
        "vocabulary": list(params.vocabulary.terms),
        "activations": [layer.activation for layer in params.layers],
    }
    return write_container(path, MODEL_MAGIC, MODEL_VERSION, meta, model_arrays(params))


def load_model(path, sha256=None):
    """The model of a checkpoint; given sha256, one whose bytes have
    another SHA-256 raises ValueError (read_container)."""
    meta, arrays = read_container(path, MODEL_MAGIC, MODEL_VERSION, sha256)
    for name, array in arrays.items():
        if not np.isfinite(array).all():
            raise ValueError(f"{path}: non-finite {name}")
    config = RankModelConfig(**meta["config"])
    layers = nn.layers_from_arrays(meta["activations"], arrays)
    return RankModelParams(
        config=config,
        vocabulary=Vocabulary(meta["vocabulary"]),
        embedding=arrays["embedding"],
        term_weights=arrays["term_weights"],
        layers=layers,
    )
