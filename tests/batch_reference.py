"""Reference training step: batches grouped and blocked from instance lists.

Before training took pair columns, compute_loss_and_grads numbered each
batch's keys with a dict (group), built count-matrix blocks from lists of
(term indices, counts) tuples (count_blocks) and read labels per instance.
This is that step and its train loop, over a PairSet spelled out as one
RowPair per pair (row_pairs), kept as the reference that ranker.train must
match bit for bit; everything after the blocks uses the program's own
helpers, so any difference comes from the grouping and the blocks.
"""

import math
from typing import NamedTuple

import numpy as np

from mimicrank import nn, ranker, seeding


class RowPair(NamedTuple):
    """One pair of a PairSet with its ids and (term indices, counts) rows."""

    query: int  # the pair set's query number
    query_rows: tuple
    doc1_id: str
    doc1_rows: tuple
    doc2_id: str
    doc2_rows: tuple
    s1: float
    s2: float


def row_pairs(pairs):
    """The RowPair of every pair of a PairSet, in order."""
    ids, rows = pairs.index.doc_ids, pairs.index.doc_rows
    return [RowPair(q, pairs.query_rows[q], ids[d1], rows(d1), ids[d2], rows(d2), s1, s2)
            for q, d1, d2, s1, s2 in zip(pairs.query.tolist(), pairs.doc1.tolist(),
                                         pairs.doc2.tolist(), pairs.s1.tolist(),
                                         pairs.s2.tolist())]


def group(keys, rows):
    """Number keys by first appearance; rows with equal keys must be equal.

    Returns (distinct, which): distinct holds one row per distinct key in
    order of first appearance, and which[i] is the number of keys[i].
    """
    distinct = dict(zip(keys, rows))
    numbers = dict(zip(distinct, range(len(distinct))))
    return (list(distinct.values()),
            np.fromiter(map(numbers.__getitem__, keys), np.intp, len(keys)))


def count_blocks(rows):
    """(first row, terms u, counts C) for each block of _BLOCK_ROWS rows.

    C is dense over the block's distinct terms u: C[i, j] is the count of
    u[j] in row first + i. u comes from sorting the block's term indices,
    and each index finds its column in an uninitialised table indexed by
    term, written and read only at u.
    """
    for first in range(0, len(rows), ranker._BLOCK_ROWS):
        idxs, cnts = zip(*rows[first:first + ranker._BLOCK_ROWS])
        terms = np.concatenate(idxs)
        ordered = np.sort(terms)
        distinct = np.empty(ordered.size, dtype=bool)
        distinct[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
        u = ordered[distinct]
        column = np.empty(terms.max(initial=-1) + 1, dtype=np.intp)
        column[u] = np.arange(u.size)
        counts = np.zeros((len(idxs), u.size))
        counts[np.repeat(np.arange(len(idxs)), list(map(len, idxs))), column[terms]] = (
            np.concatenate(cnts))
        yield first, u, counts


def loss_and_grads(params, batch, rng=None):
    """compute_loss_and_grads over a list of RowPairs, grouped per batch.

    Queries are grouped by query number and documents by doc1_id, then
    doc2_id, in order of first appearance.
    """
    n = len(batch)
    keys = ([("query", inst.query) for inst in batch] + [inst.doc1_id for inst in batch]
            + [inst.doc2_id for inst in batch])
    rows, which = group(keys, [inst.query_rows for inst in batch]
                        + [inst.doc1_rows for inst in batch]
                        + [inst.doc2_rows for inst in batch])
    k = int(which[n])
    blocks = list(count_blocks(rows))
    reps = ranker._represent_blocks(params, blocks, len(rows))
    q_reps, d_reps = reps[:k], reps[k:]

    w_q, w_d = ranker._layer0_halves(params)
    p_q, p_d = q_reps @ w_q, d_reps @ w_d
    query, doc1, doc2 = which[:n], which[n:2 * n] - k, which[2 * n:] - k
    keep = params.config.dropout_keep
    out1, cache1 = nn.forward(params.layers,
                              ranker._pre_activation(params, p_d[doc1], p_q, query), keep, rng)
    out2, cache2 = nn.forward(params.layers,
                              ranker._pre_activation(params, p_d[doc2], p_q, query), keep, rng)
    big_s1, big_s2 = out1[:, 0], out2[:, 0]

    sign = np.array([1.0 if inst.s1 > inst.s2 else -1.0 for inst in batch])
    margins = 1.0 - sign * (big_s1 - big_s2)
    active = margins > 0.0
    loss = float(np.maximum(0.0, margins).mean())

    store1 = nn.backward(cache1, (np.where(active, -sign, 0.0) / n)[:, None])
    store2 = nn.backward(cache2, (np.where(active, sign, 0.0) / n)[:, None])
    d_layers_w, d_layers_b = store1.d_weights, store1.d_biases
    for mine, theirs in zip(d_layers_w[1:] + d_layers_b[1:],
                            store2.d_weights[1:] + store2.d_biases[1:]):
        mine += theirs
    dz1, dz2 = store1.d_input, store2.d_input
    sums = ranker._group_sums([dz1 + dz2, dz1, dz2], which, len(rows))
    s_q, s_d = sums[:k], sums[k:]
    d_layers_b[0] = dz1.sum(axis=0) + dz2.sum(axis=0)
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
    d_embedding *= params.term_weights[:, None]
    return loss, {"d_embedding": d_embedding, "d_term_weights": d_term_weights,
                  "d_layer_weights": d_layers_w, "d_layer_biases": d_layers_b}


def train(params, config, pairs, epochs, seed):
    """ranker.train's loop over a PairSet's RowPairs; returns the epoch losses."""
    instances = row_pairs(pairs)
    arrays = ranker._trainable(params)
    state = nn.adam_state(arrays, learning_rate=config.learning_rate)
    epoch_losses = []
    n = len(instances)
    for epoch in range(epochs):
        order = seeding.rng(seed, epoch, 0).permutation(n)
        dropout_rng = seeding.rng(seed, epoch, 1)
        total = 0.0
        for start in range(0, n, config.batch_size):
            batch = [instances[i] for i in order[start:start + config.batch_size]]
            loss, grads = loss_and_grads(params, batch, dropout_rng)
            assert math.isfinite(loss)
            total += loss * len(batch)
            nn.optimizer_step(arrays, ranker._grad_list(grads), state)
        epoch_losses.append(total / n)
    return epoch_losses
