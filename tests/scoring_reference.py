"""Reference scorers that represent every row on every call.

The program scores index pools through ranker.pool_scorer, which fills a
table of document rows once per scorer, in blocks of ranker._BLOCK_ROWS
consecutive index positions, and scores one pair through ranker.score.
These are the plain paths the tests hold them to: score_index_pool
represents the whole index in those blocks on every call, so it gives a
scorer's bits for any pool in any call order; score_pool represents a
pool's rows in count-matrix blocks and its query once, and score_batch
scores rows against queries grouped by the identity of their rows
objects, all through ranker._infer.
"""

import numpy as np

from mimicrank import ranker
from mimicrank.corpus import term_index_counts


def represent(params, terms):
    """Weighted bag of embeddings of a term multiset; empty/OOV → zeros."""
    return ranker.represent_rows(params, [term_index_counts(params.vocabulary, terms)])[0]


def score_batch(params, query_rows, doc_rows):
    """Scores in (−1, 1) of doc_rows[i] against query_rows[i], no dropout.

    Query rows that are one object are represented once and meet layer 0's
    query half W_q once; each document row meets its document half W_d
    once. Returns a 1-D array of len(doc_rows) scores from ranker._infer.
    """
    firsts, which = ranker._first_appearance(
        np.fromiter(map(id, query_rows), np.int64, len(query_rows)))
    queries = [query_rows[i] for i in firsts.tolist()]
    w_q, w_d = ranker._layer0_halves(params)
    return ranker._infer(params, ranker.represent_rows(params, doc_rows) @ w_d,
                         np.arange(len(doc_rows)),
                         ranker.represent_rows(params, queries) @ w_q, which)


def score_pool(params, query_terms, doc_rows):
    """Scores of one query against a pool of (term indices, counts) rows.

    The query is represented once and meets W_q once for the whole pool.
    """
    query = term_index_counts(params.vocabulary, query_terms)
    return score_batch(params, [query] * len(doc_rows), doc_rows)


def score_index_pool(params, index, query_terms, pool):
    """Scores of one query against the index positions pool.

    Every index document is represented in its block of ranker._BLOCK_ROWS
    consecutive positions, the last block holding what is left, and each
    block meets W_d in one product; the query is represented alone.
    """
    w_q, w_d = ranker._layer0_halves(params)
    n, size = index.doc_count, ranker._BLOCK_ROWS
    table = np.concatenate([
        ranker.represent_rows(params, [index.doc_rows(d)
                                       for d in range(first, min(first + size, n))]) @ w_d
        for first in range(0, n, size)])
    query = ranker.represent_rows(params, [term_index_counts(params.vocabulary, query_terms)])
    pool = np.asarray(pool, dtype=np.intp)
    return ranker._infer(params, table, pool, query @ w_q, np.zeros(pool.size, dtype=np.intp))
