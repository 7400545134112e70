"""Tokenization, inverted index, BM25 scoring, and pair annotation.

The index is built once and then treated as immutable; scoring and
annotation only read it, so they can safely run concurrently across
queries.
"""

import json
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import seeding
from .serialize import read_container, write_container

BM25_K1 = 1.2
BM25_B = 0.75

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
    """

    query_id: str
    doc1_id: str
    doc2_id: str
    s1: float
    s2: float
    query_terms: tuple
    doc1_terms: tuple
    doc2_terms: tuple

    def __post_init__(self):
        if self.s1 == self.s2:
            raise ValueError(
                f"tied label scores for query {self.query_id!r}: {self.s1!r}"
            )
        if not self.query_terms:
            raise ValueError(f"query {self.query_id!r} has no terms")


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


class InvertedIndex:
    """Postings plus the corpus statistics backing IDF and BM25.

    postings[t] is a list of (doc index, term frequency) pairs sorted by doc
    index. A per-document transpose (term indices and counts as arrays) is
    kept alongside so scorers can build document representations without
    walking the full vocabulary.
    """

    def __init__(self, vocabulary, postings, doc_ids, doc_lengths):
        self.vocabulary = vocabulary
        self.postings = postings
        self.doc_ids = list(doc_ids)
        self.doc_lengths = list(doc_lengths)
        self.doc_count = len(self.doc_ids)
        self.avg_doc_length = (
            sum(self.doc_lengths) / self.doc_count if self.doc_count else 0.0
        )
        self._doc_term_idx = [[] for _ in range(self.doc_count)]
        self._doc_term_tf = [[] for _ in range(self.doc_count)]
        for t, plist in enumerate(postings):
            for d, tf in plist:
                self._doc_term_idx[d].append(t)
                self._doc_term_tf[d].append(tf)
        self._doc_term_idx = [np.asarray(a, dtype=np.int64) for a in self._doc_term_idx]
        self._doc_term_tf = [np.asarray(a, dtype=np.float64) for a in self._doc_term_tf]

    def df(self, term):
        idx = self.vocabulary.index_of(term)
        return len(self.postings[idx]) if idx is not None else 0

    def idf(self, term):
        """Smoothed inverse document frequency, ln((N + 1) / (df + 1))."""
        return math.log((self.doc_count + 1) / (self.df(term) + 1))

    def term_frequency(self, term, doc_index):
        idx = self.vocabulary.index_of(term)
        if idx is None:
            return 0
        for d, tf in self.postings[idx]:
            if d == doc_index:
                return tf
        return 0

    def bm25_score(self, query_terms, doc_index, k1=BM25_K1, b=BM25_B):
        """Okapi BM25 with +1-smoothed idf; repeated query terms add up."""
        if not 0 <= doc_index < self.doc_count:
            raise ValueError(
                f"doc_index {doc_index} out of range for {self.doc_count} documents"
            )
        dl = self.doc_lengths[doc_index]
        norm = k1 * (1.0 - b + b * dl / self.avg_doc_length) if self.avg_doc_length else k1
        score = 0.0
        for term in query_terms:
            tf = self.term_frequency(term, doc_index)
            if tf == 0:
                continue
            df = self.df(term)
            idf = math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))
            score += idf * tf * (k1 + 1.0) / (tf + norm)
        return score

    def search(self, query_terms, k):
        """Top-k documents containing at least one query term.

        Returns (doc_indices, scores) ranked by BM25 descending, ties broken
        by ascending doc_id. Scores are computed with bm25_score so they are
        bit-identical to a direct per-document evaluation.
        """
        candidates = set()
        for term in set(query_terms):
            idx = self.vocabulary.index_of(term)
            if idx is not None:
                candidates.update(d for d, _ in self.postings[idx])
        scored = [(d, self.bm25_score(query_terms, d)) for d in sorted(candidates)]
        scored.sort(key=lambda pair: (-pair[1], self.doc_ids[pair[0]]))
        top = scored[:k]
        return [d for d, _ in top], [s for _, s in top]

    def doc_terms(self, doc_index):
        """Document term list in canonical order (by term index, tf-expanded)."""
        idx, tf = self._doc_term_idx[doc_index], self._doc_term_tf[doc_index]
        out = []
        for t, n in zip(idx, tf):
            out.extend([self.vocabulary.term(int(t))] * int(n))
        return tuple(out)


def build_index(documents):
    """Tokenize documents and build the inverted index with exact statistics."""
    vocabulary = Vocabulary()
    postings = []
    doc_ids = []
    doc_lengths = []
    seen = set()
    for d, doc in enumerate(documents):
        if doc.doc_id in seen:
            raise ValueError(f"duplicate doc_id: {doc.doc_id!r}")
        seen.add(doc.doc_id)
        doc_ids.append(doc.doc_id)
        terms = tokenize(doc.text)
        doc_lengths.append(len(terms))
        counts = {}
        for t in terms:
            idx = vocabulary.add(t)
            counts[idx] = counts.get(idx, 0) + 1
        while len(postings) < len(vocabulary):
            postings.append([])
        for idx in sorted(counts):
            postings[idx].append((d, counts[idx]))
    return InvertedIndex(vocabulary, postings, doc_ids, doc_lengths)


@dataclass
class AnnotationReport:
    """What happened while annotating a query set."""

    queries_total: int = 0
    queries_annotated: int = 0
    queries_skipped: int = 0
    skipped_query_ids: list = None
    pairs_emitted: int = 0
    ties_discarded: int = 0

    def __post_init__(self):
        if self.skipped_query_ids is None:
            self.skipped_query_ids = []

    def as_dict(self):
        return {
            "queries_total": self.queries_total,
            "queries_annotated": self.queries_annotated,
            "queries_skipped": self.queries_skipped,
            "skipped_query_ids": list(self.skipped_query_ids),
            "pairs_emitted": self.pairs_emitted,
            "ties_discarded": self.ties_discarded,
        }


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
        a, b = (int(x) for x in rng.choice(n_pool, size=2, replace=False))
        key = (a, b) if a < b else (b, a)
        if key in seen:
            continue
        seen.add(key)
        if labels[a] == labels[b]:
            ties += 1
            continue
        pairs.append((a, b))
    return pairs, ties


def annotate_pools(index, queries, label_fn, pool_size, pairs_per_query, seed,
                   max_attempts_factor=50, jobs=1):
    """Shared pool-and-pair machinery behind every annotator.

    For each query the BM25 top-pool_size documents are retrieved, labeled
    by label_fn(query, pool doc indices, query position) -> score array, and
    pairs_per_query unordered pairs with distinct labels are sampled from
    the pool. Queries whose pool has fewer than two documents are skipped
    and counted in the report.

    All per-query randomness is keyed by (seed, query position), so jobs > 1
    changes only wall-clock time, never the output.
    """
    if pool_size < 2:
        raise ValueError("pool_size must be at least 2")
    max_attempts = max_attempts_factor * max(1, pairs_per_query)

    def one(args):
        qpos, query = args
        pool, _ = index.search(query.terms, pool_size)
        if len(pool) < 2:
            return qpos, None, 0
        labels = label_fn(query, pool, qpos)
        rng = seeding.rng(seed, qpos, 0)
        pairs, ties = _sample_scored_pairs(
            len(pool), labels, pairs_per_query, rng, max_attempts
        )
        emitted = []
        for a, b in pairs:
            d1, d2 = pool[a], pool[b]
            emitted.append(
                TrainingInstance(
                    query_id=query.query_id,
                    doc1_id=index.doc_ids[d1],
                    doc2_id=index.doc_ids[d2],
                    s1=float(labels[a]),
                    s2=float(labels[b]),
                    query_terms=query.terms,
                    doc1_terms=index.doc_terms(d1),
                    doc2_terms=index.doc_terms(d2),
                )
            )
        return qpos, emitted, ties

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool_exec:
            results = list(pool_exec.map(one, enumerate(queries)))
    else:
        results = [one(item) for item in enumerate(queries)]

    instances = []
    report = AnnotationReport(queries_total=len(queries))
    for qpos, emitted, ties in results:
        if emitted is None:
            report.queries_skipped += 1
            report.skipped_query_ids.append(queries[qpos].query_id)
            continue
        report.queries_annotated += 1
        report.ties_discarded += ties
        instances.extend(emitted)
        report.pairs_emitted += len(emitted)
    return instances, report


def annotate_queries(index, queries, pool_size=100, pairs_per_query=20, seed=0,
                     jobs=1):
    """BM25 weak supervision: pools and label scores both come from BM25."""

    def bm25_labels(query, pool, qpos):
        return [index.bm25_score(query.terms, d) for d in pool]

    return annotate_pools(index, queries, bm25_labels, pool_size, pairs_per_query,
                          seed, jobs=jobs)


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
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(
                f"{inst.query_id}\t{inst.doc1_id}\t{inst.doc2_id}"
                f"\t{inst.s1:.6f}\t{inst.s2:.6f}\n"
            )


def read_annotations(path, queries, index):
    """Rebuild training instances from an annotation file.

    Query terms come from the query set and document terms from the index,
    so an annotation file plus the corpus artifacts fully reconstruct the
    training data. Pairs whose scores collapsed to a tie under the 6-decimal
    file format are dropped; the count of such pairs is returned alongside.
    """
    by_qid = {q.query_id: q for q in queries}
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
            if qid not in by_qid:
                raise ValueError(f"{path}:{lineno}: unknown query_id {qid!r}")
            for did in (d1, d2):
                if did not in doc_pos:
                    raise ValueError(f"{path}:{lineno}: unknown doc_id {did!r}")
            try:
                s1, s2 = float(s1_raw), float(s2_raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed score") from exc
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
                    query_terms=by_qid[qid].terms,
                    doc1_terms=index.doc_terms(doc_pos[d1]),
                    doc2_terms=index.doc_terms(doc_pos[d2]),
                )
            )
    return instances, dropped_ties


def save_index(path, index):
    """Serialize the index to a versioned binary artifact (byte-stable)."""
    flat = []
    offsets = [0]
    for plist in index.postings:
        for d, tf in plist:
            flat.extend((d, tf))
        offsets.append(len(flat) // 2)
    meta = {
        "kind": "inverted-index",
        "doc_ids": index.doc_ids,
        "vocabulary": list(index.vocabulary.terms),
    }
    arrays = [
        ("doc_lengths", np.asarray(index.doc_lengths, dtype=np.int64)),
        ("postings_flat", np.asarray(flat, dtype=np.int64)),
        ("postings_offsets", np.asarray(offsets, dtype=np.int64)),
    ]
    write_container(path, INDEX_MAGIC, INDEX_VERSION, meta, arrays)


def load_index(path):
    _, meta, arrays = read_container(path, INDEX_MAGIC, INDEX_VERSION)
    vocabulary = Vocabulary(meta["vocabulary"])
    flat = arrays["postings_flat"].reshape(-1, 2)
    offsets = arrays["postings_offsets"]
    postings = []
    for t in range(len(vocabulary)):
        lo, hi = offsets[t], offsets[t + 1]
        postings.append([(int(d), int(tf)) for d, tf in flat[lo:hi]])
    return InvertedIndex(
        vocabulary,
        postings,
        meta["doc_ids"],
        [int(x) for x in arrays["doc_lengths"]],
    )
