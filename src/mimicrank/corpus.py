"""Tokenization, inverted index, BM25 scoring, and pair annotation.

The index keeps its postings in CSR form, the same arrays index.bin
stores: one flat int64 array of (doc index, tf) pairs grouped by term
index and sorted by doc index within a term, plus |V| + 1 term offsets
into it. Building or loading an index also computes each posting's BM25
impact, idf·tf·(k1+1)/(tf+norm), into a float64 array aligned with the
postings. A query's BM25 scores are one slice scatter-add of impacts per
query term into a dense accumulator (bm25_scores); search ranks it, and
the BM25 weak labels take the pool's entries of it without a second
top-k search. Impacts keep bm25_score's expression order and terms add
up in query order, so every score equals bm25_score bit for bit.
"""

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import seeding
from .serialize import atomic_write, read_container, write_container

BM25_K1 = 1.2
BM25_B = 0.75

# pair draws per requested pair before a query's sampling gives up
MAX_ATTEMPTS_PER_PAIR = 50

INDEX_MAGIC = b"MRIX"
INDEX_VERSION = 1

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text):
    """Lowercase and split into alphanumeric runs; everything else is a separator."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str


class Query(NamedTuple):
    query_id: str
    terms: tuple


@dataclass(frozen=True)
class TrainingInstance:
    """One pairwise example: a query, two documents, and their label scores.

    The label scores s1/s2 come from whichever annotator produced the
    instance (BM25, a trained model, or a noisy ensemble); only the sign of
    their difference drives the hinge loss, so ties are rejected outright.
    Query and documents are (term indices, counts) rows over the index
    vocabulary (InvertedIndex.doc_rows views, term_index_counts for the
    query); they take no part in == or hash, which compare ids and labels.
    """

    query_id: str
    doc1_id: str
    doc2_id: str
    s1: float
    s2: float
    query_rows: tuple = field(compare=False, repr=False)
    doc1_rows: tuple = field(compare=False, repr=False)
    doc2_rows: tuple = field(compare=False, repr=False)

    def __post_init__(self):
        if self.s1 == self.s2:
            raise ValueError(
                f"tied label scores for query {self.query_id!r}: {self.s1!r}"
            )


class Vocabulary:
    """Bijection between term strings and dense 0-based indices."""

    def __init__(self, terms=()):
        self._index = {}
        self._terms = []
        for t in terms:
            self.add(t)

    def add(self, term):
        idx = self._index.get(term)
        if idx is None:
            idx = len(self._terms)
            self._index[term] = idx
            self._terms.append(term)
        return idx

    def index_of(self, term):
        """Index for term, or None if unseen."""
        return self._index.get(term)

    def term(self, idx):
        return self._terms[idx]

    @property
    def terms(self):
        return tuple(self._terms)

    def __len__(self):
        return len(self._terms)

    def __contains__(self, term):
        return term in self._index

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self._terms == other._terms


def term_index_counts(vocabulary, terms):
    """Canonical (sorted unique term indices, counts) for a term multiset.

    OOV terms are dropped. The sorted-unique form fixes the summation order
    so representations are bit-identical regardless of input term order.
    """
    idx = [i for i in map(vocabulary.index_of, terms) if i is not None]
    if not idx:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    uniq, counts = np.unique(np.asarray(idx, dtype=np.int64), return_counts=True)
    return uniq, counts.astype(np.float64)


class InvertedIndex:
    """CSR postings plus the corpus statistics backing IDF and BM25.

    postings is an (nnz, 2) int64 array of (doc index, term frequency) rows
    grouped by term index and sorted by doc index within a term; term t owns
    rows offsets[t]:offsets[t + 1]; impacts[i] is posting i's BM25
    contribution. A doc-major copy of the rows (each document's term
    indices and counts, by term index) backs doc_rows, bm25_score and
    doc_terms.
    """

    def __init__(self, vocabulary, postings, offsets, doc_ids, doc_lengths):
        self.vocabulary = vocabulary
        self.postings = postings
        self.offsets = offsets
        self.doc_ids = list(doc_ids)
        self.doc_lengths = doc_lengths
        self.doc_count = len(self.doc_ids)
        self.avg_doc_length = (
            int(doc_lengths.sum()) / self.doc_count if self.doc_count else 0.0
        )
        by_doc = np.argsort(postings[:, 0], kind="stable")
        row_terms = np.repeat(np.arange(len(vocabulary)), np.diff(offsets))
        self._doc_term_idx, self._doc_term_tf = row_terms[by_doc], postings[by_doc, 1]
        self._doc_offsets = np.searchsorted(postings[by_doc, 0],
                                            np.arange(self.doc_count + 1))
        # each posting's BM25 contribution, in bm25_score's expression order;
        # idf through math.log as there, since np.log may differ in the last bit
        docs, tfs = postings[:, 0], postings[:, 1]
        df = np.diff(offsets)
        idf = [math.log(x) for x in (1.0 + (self.doc_count - df + 0.5) / (df + 0.5)).tolist()]
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * doc_lengths[docs] / self.avg_doc_length)
        self.impacts = np.repeat(idf, df) * tfs * (BM25_K1 + 1.0) / (tfs + norm)
        # each document's position in ascending doc_id order breaks score ties
        self._id_rank = np.argsort(
            sorted(range(self.doc_count), key=self.doc_ids.__getitem__))

    def df(self, term):
        idx = self.vocabulary.index_of(term)
        return int(self.offsets[idx + 1] - self.offsets[idx]) if idx is not None else 0

    def idf(self, term):
        """Smoothed inverse document frequency, ln((N + 1) / (df + 1))."""
        return math.log((self.doc_count + 1) / (self.df(term) + 1))

    def doc_rows(self, doc_index):
        """Term indices (ascending, unique) and their counts in one document.

        Views into the index's doc-major arrays, not copies: what
        term_index_counts gives for this document's doc_terms, int64 counts.
        """
        lo, hi = self._doc_offsets[doc_index], self._doc_offsets[doc_index + 1]
        return self._doc_term_idx[lo:hi], self._doc_term_tf[lo:hi]

    def bm25_score(self, query_terms, doc_index):
        """Okapi BM25 with +1-smoothed idf; repeated query terms add up."""
        if not 0 <= doc_index < self.doc_count:
            raise ValueError(
                f"doc_index {doc_index} out of range for {self.doc_count} documents"
            )
        dl = int(self.doc_lengths[doc_index])
        norm = (BM25_K1 * (1.0 - BM25_B + BM25_B * dl / self.avg_doc_length)
                if self.avg_doc_length else BM25_K1)
        terms, tfs = self.doc_rows(doc_index)
        score = 0.0
        for term in query_terms:
            idx = self.vocabulary.index_of(term)
            pos = int(np.searchsorted(terms, idx)) if idx is not None else len(terms)
            if pos == len(terms) or terms[pos] != idx:
                continue
            tf = int(tfs[pos])
            df = self.df(term)
            idf = math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))
            score += idf * tf * (BM25_K1 + 1.0) / (tf + norm)
        return score

    def bm25_scores(self, query_terms):
        """Every document's BM25 score for the query, as a dense float64 array.

        One scatter-add of precomputed impacts per query term, in query term
        order, so each score is bit-identical to bm25_score. Every impact is
        positive, so a document scores above 0 exactly when it holds a
        query term.
        """
        scores = np.zeros(self.doc_count)
        for term in query_terms:
            idx = self.vocabulary.index_of(term)
            if idx is not None:
                lo, hi = self.offsets[idx], self.offsets[idx + 1]
                scores[self.postings[lo:hi, 0]] += self.impacts[lo:hi]
        return scores

    def search(self, query_terms, k):
        """Top-k documents containing at least one query term.

        Returns (doc_indices, scores) ranked by BM25 descending, ties broken
        by ascending doc_id; the scores are bm25_scores', bit-identical to
        bm25_score. Only the hits at or above the k-th score are sorted, so
        every document tied at the cut competes by doc_id. k None keeps
        every hit; a k below 1 raises ValueError.
        """
        if k is not None and k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        scores = self.bm25_scores(query_terms)
        found = np.flatnonzero(scores)
        if k is not None and k < len(found):
            hit_scores = scores[found]
            cut = len(found) - k
            found = found[hit_scores >= np.partition(hit_scores, cut)[cut]]
        top = found[np.lexsort((self._id_rank[found], -scores[found]))][:k]
        return top.tolist(), scores[top].tolist()

    def doc_terms(self, doc_index):
        """Document term list in canonical order (by term index, tf-expanded)."""
        terms, tfs = self.doc_rows(doc_index)
        out = []
        for t, n in zip(terms.tolist(), tfs.tolist()):
            out.extend([self.vocabulary.term(t)] * n)
        return tuple(out)


def build_index(documents):
    """Tokenize documents and build the inverted index with exact statistics."""
    vocabulary = Vocabulary()
    doc_ids, doc_lengths = [], []
    terms_col, docs_col, tfs_col = [], [], []
    seen = set()
    for d, doc in enumerate(documents):
        if doc.doc_id in seen:
            raise ValueError(f"duplicate doc_id: {doc.doc_id!r}")
        seen.add(doc.doc_id)
        doc_ids.append(doc.doc_id)
        terms = tokenize(doc.text)
        doc_lengths.append(len(terms))
        counts = Counter(vocabulary.add(t) for t in terms)
        terms_col.extend(counts)
        docs_col.extend([d] * len(counts))
        tfs_col.extend(counts.values())
    terms_col = np.asarray(terms_col, dtype=np.int64)
    by_term = np.argsort(terms_col, kind="stable")  # a term's rows stay in doc order
    postings = np.array([docs_col, tfs_col], dtype=np.int64).T[by_term]
    offsets = np.searchsorted(terms_col[by_term], np.arange(len(vocabulary) + 1))
    return InvertedIndex(vocabulary, postings, offsets, doc_ids,
                         np.asarray(doc_lengths, dtype=np.int64))


@dataclass
class AnnotationReport:
    """What happened while annotating a query set."""

    queries_total: int = 0
    queries_annotated: int = 0
    queries_skipped: int = 0
    skipped_query_ids: list = field(default_factory=list)
    pairs_emitted: int = 0
    ties_discarded: int = 0


def _sample_scored_pairs(n_pool, labels, pairs_per_query, rng, max_attempts):
    """Sample unordered index pairs with distinct labels, without replacement.

    Tied pairs are discarded and resampling continues until pairs_per_query
    pairs are found, the pool is exhausted, or max_attempts draws are spent.
    Returns (pairs, ties_discarded).
    """
    pairs = []
    seen = set()
    ties = 0
    total = n_pool * (n_pool - 1) // 2
    attempts = 0
    while len(pairs) < pairs_per_query and len(seen) < total and attempts < max_attempts:
        attempts += 1
        a, b = rng.choice(n_pool, size=2, replace=False).tolist()
        key = (a, b) if a < b else (b, a)
        if key in seen:
            continue
        seen.add(key)
        if labels[a] == labels[b]:
            ties += 1
            continue
        pairs.append((a, b))
    return pairs, ties


def annotate_pools(index, queries, label_fn, pool_size, pairs_per_query, seed):
    """Shared pool-and-pair machinery behind every annotator.

    For each query the BM25 top-pool_size documents are retrieved, labeled
    by label_fn(query, pool doc indices, query position) -> score array, and
    pairs_per_query unordered pairs with distinct labels are sampled from
    the pool. Queries whose pool has fewer than two documents are skipped
    and counted in the report. All per-query randomness is keyed by
    (seed, query position).
    """
    if pool_size < 2:
        raise ValueError("pool_size must be at least 2")
    max_attempts = MAX_ATTEMPTS_PER_PAIR * max(1, pairs_per_query)
    instances = []
    report = AnnotationReport(queries_total=len(queries))
    for qpos, query in enumerate(queries):
        pool, _ = index.search(query.terms, pool_size)
        if len(pool) < 2:
            report.queries_skipped += 1
            report.skipped_query_ids.append(query.query_id)
            continue
        labels = label_fn(query, pool, qpos)
        rng = seeding.rng(seed, qpos, 0)
        pairs, ties = _sample_scored_pairs(
            len(pool), labels, pairs_per_query, rng, max_attempts
        )
        query_rows = term_index_counts(index.vocabulary, query.terms)
        for a, b in pairs:
            d1, d2 = pool[a], pool[b]
            instances.append(
                TrainingInstance(
                    query_id=query.query_id,
                    doc1_id=index.doc_ids[d1],
                    doc2_id=index.doc_ids[d2],
                    s1=float(labels[a]),
                    s2=float(labels[b]),
                    query_rows=query_rows,
                    doc1_rows=index.doc_rows(d1),
                    doc2_rows=index.doc_rows(d2),
                )
            )
        report.queries_annotated += 1
        report.ties_discarded += ties
        report.pairs_emitted += len(pairs)
    return instances, report


def annotate_queries(index, queries, pool_size=100, pairs_per_query=20, seed=0):
    """BM25 weak supervision: pools and label scores both come from BM25.

    The labels are the pool's entries of bm25_scores, the accumulation
    search ranked the pool by, so they equal bm25_score of each pool
    document bit for bit and the pool is searched once.
    """

    def bm25_labels(query, pool, qpos):
        return index.bm25_scores(query.terms)[pool]

    return annotate_pools(index, queries, bm25_labels, pool_size, pairs_per_query,
                          seed)


# ---------------------------------------------------------------------------
# File formats


def read_corpus(path):
    """Line-delimited JSON records {"id": ..., "text": ...}, UTF-8."""
    documents = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                documents.append(Document(doc_id=str(rec["id"]), text=str(rec["text"])))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed corpus record: {exc}") from exc
    return documents


def read_queries(path):
    """Tab-separated `query_id<TAB>query text`, one query per line."""
    queries = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected query_id<TAB>text")
            qid, text = line.split("\t", 1)
            if qid in seen:
                raise ValueError(f"{path}:{lineno}: duplicate query_id {qid!r}")
            seen.add(qid)
            queries.append(Query(query_id=qid, terms=tuple(tokenize(text))))
    return queries


def write_annotations(path, instances):
    """Tab-separated query_id, doc ids, and scores with 6 decimal places."""
    with atomic_write(path) as fh:
        for inst in instances:
            fh.write(
                f"{inst.query_id}\t{inst.doc1_id}\t{inst.doc2_id}"
                f"\t{inst.s1:.6f}\t{inst.s2:.6f}\n"
            )


def read_annotations(path, queries, index):
    """Rebuild training instances from an annotation file.

    Query rows come from the query set and document rows from the index,
    so an annotation file plus the corpus artifacts fully reconstruct the
    training data; a query with no indexed term is rejected. Pairs whose
    scores tie at the file's 6 decimals are dropped and counted alongside.
    """
    query_rows = {q.query_id: term_index_counts(index.vocabulary, q.terms)
                  for q in queries}
    doc_pos = {doc_id: i for i, doc_id in enumerate(index.doc_ids)}
    instances = []
    dropped_ties = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 tab-separated fields")
            qid, d1, d2, s1_raw, s2_raw = parts
            if qid not in query_rows:
                raise ValueError(f"{path}:{lineno}: unknown query_id {qid!r}")
            if not query_rows[qid][0].size:
                raise ValueError(f"{path}:{lineno}: query {qid!r} has no indexed term")
            for did in (d1, d2):
                if did not in doc_pos:
                    raise ValueError(f"{path}:{lineno}: unknown doc_id {did!r}")
            try:
                s1, s2 = float(s1_raw), float(s2_raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed score") from exc
            if not (math.isfinite(s1) and math.isfinite(s2)):
                raise ValueError(f"{path}:{lineno}: non-finite score")
            if s1 == s2:
                dropped_ties += 1
                continue
            instances.append(
                TrainingInstance(
                    query_id=qid,
                    doc1_id=d1,
                    doc2_id=d2,
                    s1=s1,
                    s2=s2,
                    query_rows=query_rows[qid],
                    doc1_rows=index.doc_rows(doc_pos[d1]),
                    doc2_rows=index.doc_rows(doc_pos[d2]),
                )
            )
    return instances, dropped_ties


def save_index(path, index):
    """Serialize the index to a versioned binary artifact (byte-stable)."""
    meta = {
        "kind": "inverted-index",
        "doc_ids": index.doc_ids,
        "vocabulary": list(index.vocabulary.terms),
    }
    arrays = [
        ("doc_lengths", index.doc_lengths),
        ("postings_flat", index.postings.reshape(-1)),
        ("postings_offsets", index.offsets),
    ]
    write_container(path, INDEX_MAGIC, INDEX_VERSION, meta, arrays)


def load_index(path):
    """Read an index written by save_index; malformed arrays raise ValueError."""
    meta, arrays = read_container(path, INDEX_MAGIC, INDEX_VERSION)
    vocabulary = Vocabulary(meta["vocabulary"])
    _check_index_arrays(path, len(vocabulary), len(meta["doc_ids"]), arrays)
    return InvertedIndex(vocabulary, arrays["postings_flat"].reshape(-1, 2),
                         arrays["postings_offsets"], meta["doc_ids"], arrays["doc_lengths"])


def _check_index_arrays(path, n_terms, n_docs, arrays):
    """Reject arrays that fancy indexing would misread (negative docs wrap)."""
    flat, offsets = arrays["postings_flat"], arrays["postings_offsets"]

    def require(ok, array, problem):
        if not ok:
            raise ValueError(f"{path}: malformed {array}: {problem}")

    require(flat.ndim == 1 and flat.size % 2 == 0, "postings_flat",
            "expected a flat run of (doc, tf) pairs")
    docs, tfs = flat[0::2], flat[1::2]
    nnz = len(docs)
    require(offsets.shape == (n_terms + 1,) and offsets[0] == 0 and offsets[-1] == nnz
            and np.all(np.diff(offsets) >= 0), "postings_offsets",
            f"expected {n_terms + 1} nondecreasing offsets from 0 to {nnz}")
    require(np.all((docs >= 0) & (docs < n_docs)), "postings_flat",
            f"doc index outside [0, {n_docs})")
    term_start = np.zeros(nnz + 1, dtype=bool)
    term_start[offsets] = True
    require(np.all((np.diff(docs) > 0) | term_start[1:nnz]), "postings_flat",
            "doc indices not strictly increasing within a term")
    require(np.all(tfs >= 1), "postings_flat", "term frequency below 1")
    lengths = arrays["doc_lengths"]
    require(lengths.shape == (n_docs,) and np.array_equal(
        np.bincount(docs, weights=tfs, minlength=n_docs), lengths), "doc_lengths",
        f"expected {n_docs} lengths, each the tf sum of its document")
