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

Annotation gives a PairSet: training pairs as columns of query numbers,
index positions and labels, which training, sharding and held-out
agreement take as they are and annotation files store by id.
"""

import itertools
import json
import math
import re
from collections import Counter, defaultdict
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
# every ASCII character the pattern does not match, mapped to a space
_ASCII_SEPARATORS = str.maketrans({c: " " for c in map(chr, range(128))
                                   if not _TOKEN_RE.fullmatch(c)})


def tokenize(text):
    """Lowercase and split into alphanumeric runs; everything else is a separator.

    Lowercased ASCII text takes a faster path with the same tokens: its
    separators become spaces and str.split cuts there. The test runs after
    lowercasing, since some non-ASCII letters lowercase to ASCII ones.
    """
    text = text.lower()
    if text.isascii():
        return text.translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(text)


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str


class Query(NamedTuple):
    query_id: str
    terms: tuple


@dataclass(slots=True, unsafe_hash=True)
class TrainingInstance:
    """One annotation line: a query, two documents, and their label scores.

    The label scores s1/s2 come from whichever annotator produced the pair;
    only the sign of their difference drives the hinge loss, so ties are
    rejected outright. Slotted, not frozen: a frozen dataclass sets each
    field through object.__setattr__ and costs several times as much to
    build, and iterating a PairSet builds one per pair.
    """

    query_id: str
    doc1_id: str
    doc2_id: str
    s1: float
    s2: float

    def __post_init__(self):
        if self.s1 == self.s2:
            raise ValueError(
                f"tied label scores for query {self.query_id!r}: {self.s1!r}"
            )


class PairSet:
    """Training pairs as columns of positions, from annotation to training.

    Pair i is query number query[i] against the documents at positions
    doc1[i] and doc2[i] of index, labeled s1[i] and s2[i] (float64), and
    tied labels raise ValueError. query_ids[q] and query_rows[q] are query
    q's id and term_index_counts row, computed once where the set is made;
    document d's are index.doc_ids[d] and index.doc_rows(d). take picks
    pairs over the same tables, and iteration yields TrainingInstances.
    """

    def __init__(self, index, query_ids, query_rows, query, doc1, doc2, s1, s2):
        self.index, self.query_ids, self.query_rows = index, query_ids, query_rows
        self.query, self.doc1, self.doc2 = (np.asarray(c, dtype=np.intp)
                                            for c in (query, doc1, doc2))
        self.s1, self.s2 = (np.asarray(c, dtype=np.float64) for c in (s1, s2))
        tied = np.flatnonzero(self.s1 == self.s2)
        if tied.size:
            raise ValueError(f"tied label scores for query {query_ids[self.query[tied[0]]]!r}")

    def __len__(self):
        return self.s1.size

    def take(self, positions):
        """The pairs at positions, in that order, over the same tables."""
        columns = self.query, self.doc1, self.doc2, self.s1, self.s2
        return PairSet(self.index, self.query_ids, self.query_rows,
                       *(column[positions] for column in columns))

    def __iter__(self):
        doc_id = self.index.doc_ids.__getitem__
        return map(TrainingInstance, map(self.query_ids.__getitem__, self.query.tolist()),
                   map(doc_id, self.doc1.tolist()), map(doc_id, self.doc2.tolist()),
                   self.s1.tolist(), self.s2.tolist())


class Vocabulary:
    """Bijection between term strings and dense 0-based indices, by first appearance."""

    def __init__(self, terms=()):
        self._terms = list(dict.fromkeys(terms))
        self._index = {t: i for i, t in enumerate(self._terms)}

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

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self._terms == other._terms


def term_index_counts(vocabulary, terms):
    """Canonical (sorted unique term indices, counts) for a term multiset.

    OOV terms are dropped. The sorted-unique form fixes the summation order
    so representations are bit-identical regardless of input term order.
    """
    counts = Counter(i for i in map(vocabulary.index_of, terms) if i is not None)
    uniq = sorted(counts)
    return (np.array(uniq, dtype=np.int64),
            np.array(list(map(counts.__getitem__, uniq)), dtype=np.float64))


class InvertedIndex:
    """CSR postings plus the corpus statistics backing IDF and BM25.

    postings is an (nnz, 2) int64 array of (doc index, term frequency) rows
    grouped by term index and sorted by doc index within a term; term t owns
    rows offsets[t]:offsets[t + 1]; impacts[i] is posting i's BM25
    contribution. A doc-major copy of the rows, split once into each
    document's (term indices, counts) views, backs doc_rows, bm25_score
    and doc_terms.
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
        row_terms = np.repeat(np.arange(len(vocabulary)), np.diff(offsets))[by_doc]
        row_tfs = postings[by_doc, 1]
        bounds = np.searchsorted(postings[by_doc, 0], np.arange(self.doc_count + 1)).tolist()
        self._doc_rows = [(row_terms[lo:hi], row_tfs[lo:hi])
                          for lo, hi in zip(bounds, bounds[1:])]
        # each posting's BM25 contribution, in bm25_score's expression order;
        # idf through math.log as there, since np.log may differ in the last bit
        docs, tfs = postings[:, 0], postings[:, 1]
        df = np.diff(offsets)
        idf = [math.log(x) for x in (1.0 + (self.doc_count - df + 0.5) / (df + 0.5)).tolist()]
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * doc_lengths[docs] / self.avg_doc_length)
        self.impacts = np.repeat(idf, df) * tfs * (BM25_K1 + 1.0) / (tfs + norm)
        # each document's position in ascending doc_id order breaks score
        # ties, here and in pipeline.model_run
        self.id_rank = np.argsort(
            sorted(range(self.doc_count), key=self.doc_ids.__getitem__))

    def df(self, term):
        idx = self.vocabulary.index_of(term)
        return int(self.offsets[idx + 1] - self.offsets[idx]) if idx is not None else 0

    def idf(self, term):
        """Smoothed inverse document frequency, ln((N + 1) / (df + 1))."""
        return math.log((self.doc_count + 1) / (self.df(term) + 1))

    def doc_rows(self, doc_index):
        """Term indices (ascending, unique) and their counts in one document.

        Views into the index's doc-major arrays, not copies, taken once
        when the index is made: what term_index_counts gives for this
        document's doc_terms, int64 counts.
        """
        return self._doc_rows[doc_index]

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
        every document tied at the cut competes by doc_id. A k below 1
        raises ValueError.
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        scores = self.bm25_scores(query_terms)
        found = np.flatnonzero(scores)
        if k < len(found):
            hit_scores = scores[found]
            cut = len(found) - k
            found = found[hit_scores >= np.partition(hit_scores, cut)[cut]]
        top = found[np.lexsort((self.id_rank[found], -scores[found]))][:k]
        return top.tolist(), scores[top].tolist()

    def doc_terms(self, doc_index):
        """Document term list in canonical order (by term index, tf-expanded)."""
        terms, tfs = self.doc_rows(doc_index)
        out = []
        for t, n in zip(terms.tolist(), tfs.tolist()):
            out.extend([self.vocabulary.term(t)] * n)
        return tuple(out)


def build_index(documents):
    """Tokenize documents and build the inverted index with exact statistics.

    One pass over the token stream numbers each term at its first appearance
    and maps every token to its index; one sort of the term·N + doc keys with
    counts gives the postings, by term and then doc, with their frequencies.
    """
    doc_ids = [doc.doc_id for doc in documents]
    seen = set()
    for doc_id in doc_ids:
        if doc_id in seen:
            raise ValueError(f"duplicate doc_id: {doc_id!r}")
        seen.add(doc_id)
    tokens = [tokenize(doc.text) for doc in documents]
    doc_lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    number = defaultdict(itertools.count().__next__)  # unseen term: next index
    terms = np.fromiter(map(number.__getitem__, itertools.chain.from_iterable(tokens)),
                        dtype=np.int64, count=int(doc_lengths.sum()))
    vocabulary = Vocabulary(number)
    docs = np.repeat(np.arange(len(doc_ids)), doc_lengths)
    keys, tfs = np.unique(terms * len(doc_ids) + docs, return_counts=True)
    key_terms, key_docs = np.divmod(keys, len(doc_ids))
    offsets = np.searchsorted(key_terms, np.arange(len(vocabulary) + 1))
    return InvertedIndex(vocabulary, np.stack([key_docs, tfs], axis=1), offsets,
                         doc_ids, doc_lengths)


@dataclass
class AnnotationReport:
    """What happened while annotating a query set."""

    queries_total: int = 0
    queries_annotated: int = 0
    queries_skipped: int = 0
    skipped_query_ids: list = field(default_factory=list)
    pairs_emitted: int = 0
    ties_discarded: int = 0


# raw 64-bit words taken from a bit generator at a time
RAW_WORDS_PER_CHUNK = 64

_U32 = 0xFFFFFFFF


def _sample_scored_pairs(n_pool, labels, pairs_per_query, rng, max_attempts):
    """Sample unordered index pairs with distinct labels, without replacement.

    Tied pairs are discarded and resampling continues until pairs_per_query
    pairs are found, the pool is exhausted, or max_attempts draws are spent.
    Returns (pairs, ties_discarded).

    Each draw is what rng.choice(n_pool, 2, replace=False) gives, decoded
    inline from rng's raw words; tests pin it to numpy's draw for draw.
    Each raw 64-bit word gives a 32-bit word of its low half, then one of
    its high half, and words are taken RAW_WORDS_PER_CHUNK raw words at a
    time, so the generator runs ahead of what is used: rng must be fresh
    and used for nothing else (annotate_pools gives each query its own
    seeding.rng(seed, qpos, 0)). A draw is Floyd's selection, a in
    [0, n-2] and v in [0, n-1] with b = n-1 if v == a else v, then
    numpy's closing shuffle, which swaps the two when a draw in [0, 1] is
    0. A draw in [0, r] is Lemire's: r == 0 gives 0 and takes no word;
    otherwise a word u gives m = u·(r+1), drawn again while m's low 32
    bits fall below (2^32 - 1 - r) mod (r+1), and the draw is m >> 32.
    Over [0, 1] that threshold is 0, so the swap draw is u >> 31 of one
    word. A pool of 2^32 documents or more, where numpy would take its
    64-bit path, raises ValueError, as does one of fewer than 2.
    """
    if not 2 <= n_pool < 1 << 32:
        raise ValueError(f"pair draws need 2 <= n < 2**32, got {n_pool}")
    random_raw = rng.bit_generator.random_raw
    words, w = [], 0  # 32-bit words, and the position of the next unused one
    a_range, v_range = n_pool - 1, n_pool  # r + 1 of the draws of a and v
    a_min, v_min = (_U32 - n_pool + 2) % a_range, (_U32 - n_pool + 1) % v_range
    total = n_pool * (n_pool - 1) // 2
    pairs = []
    seen = set()
    ties = 0
    if pairs_per_query < 1:
        return pairs, ties
    for _ in range(max_attempts):
        # a draw takes at most three words unless one is rejected, and
        # every rejected word is followed by at most three more
        if len(words) - w < 3:
            words, w = words[w:] + _raw_words(random_raw), 0
        a = 0
        if a_range > 1:
            m = words[w] * a_range
            w += 1
            while m & _U32 < a_min:
                if len(words) - w < 3:
                    words, w = words[w:] + _raw_words(random_raw), 0
                m = words[w] * a_range
                w += 1
            a = m >> 32
        m = words[w] * v_range
        w += 1
        while m & _U32 < v_min:
            if len(words) - w < 3:
                words, w = words[w:] + _raw_words(random_raw), 0
            m = words[w] * v_range
            w += 1
        b = m >> 32
        if b == a:
            b = n_pool - 1
        if words[w] >> 31 == 0:
            a, b = b, a
        w += 1
        key = (a, b) if a < b else (b, a)
        if key in seen:
            continue
        seen.add(key)
        if labels[a] == labels[b]:
            ties += 1
        else:
            pairs.append((a, b))
            if len(pairs) == pairs_per_query:
                break
        if len(seen) == total:
            break
    return pairs, ties


def _raw_words(random_raw):
    """The next RAW_WORDS_PER_CHUNK raw words as 32-bit words, each low half first."""
    return random_raw(RAW_WORDS_PER_CHUNK).astype("<u8", copy=False).view("<u4").tolist()


def annotate_pools(index, queries, label_fn, pool_size, pairs_per_query, seed):
    """Shared pool-and-pair machinery behind every annotator.

    For each query the BM25 top-pool_size documents are retrieved, labeled
    by label_fn(query, pool doc indices, query position) -> score array, and
    pairs_per_query unordered pairs with distinct labels are sampled from
    the pool. Queries whose pool has fewer than two documents are skipped
    and counted in the report. All per-query randomness is keyed by
    (seed, query position). Returns (PairSet, report); the set numbers the
    annotated queries in order.
    """
    if pool_size < 2:
        raise ValueError("pool_size must be at least 2")
    max_attempts = MAX_ATTEMPTS_PER_PAIR * max(1, pairs_per_query)
    query_ids, query_rows = [], []
    numbers, doc1, doc2, s1, s2 = [], [], [], [], []
    report = AnnotationReport(queries_total=len(queries))
    for qpos, query in enumerate(queries):
        pool, _ = index.search(query.terms, pool_size)
        if len(pool) < 2:
            report.queries_skipped += 1
            report.skipped_query_ids.append(query.query_id)
            continue
        labels = np.asarray(label_fn(query, pool, qpos), dtype=np.float64).tolist()
        rng = seeding.rng(seed, qpos, 0)
        pairs, ties = _sample_scored_pairs(
            len(pool), labels, pairs_per_query, rng, max_attempts
        )
        numbers += [len(query_ids)] * len(pairs)
        query_ids.append(query.query_id)
        query_rows.append(term_index_counts(index.vocabulary, query.terms))
        doc1 += [pool[a] for a, _ in pairs]
        doc2 += [pool[b] for _, b in pairs]
        s1 += [labels[a] for a, _ in pairs]
        s2 += [labels[b] for _, b in pairs]
        report.queries_annotated += 1
        report.ties_discarded += ties
        report.pairs_emitted += len(pairs)
    return PairSet(index, query_ids, query_rows, numbers, doc1, doc2, s1, s2), report


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


def _check_run_id(value, where, what):
    # run, qrels and annotation lines are split on whitespace
    if value.split() != [value]:
        raise ValueError(f"{where}: {what} {value!r} is empty or holds whitespace")


def read_corpus(path):
    """Line-delimited JSON records {"id": str or int, "text": str}, UTF-8."""
    documents = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                doc_id, text = rec["id"], rec["text"]
                if not isinstance(text, str):
                    raise TypeError(f"text must be a string, got {text!r}")
                if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
                    raise TypeError(f"id must be a string or an integer, got {doc_id!r}")
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed corpus record: {exc}") from exc
            _check_run_id(str(doc_id), f"{path}:{lineno}", "a document id")
            documents.append(Document(doc_id=str(doc_id), text=text))
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
            _check_run_id(qid, f"{path}:{lineno}", "a query_id")
            if qid in seen:
                raise ValueError(f"{path}:{lineno}: duplicate query_id {qid!r}")
            seen.add(qid)
            queries.append(Query(query_id=qid, terms=tuple(tokenize(text))))
    return queries


def write_annotations(path, pairs):
    """Tab-separated query_id, doc ids, and scores with 6 decimal places."""
    with atomic_write(path) as fh:
        for inst in pairs:
            fh.write(
                f"{inst.query_id}\t{inst.doc1_id}\t{inst.doc2_id}"
                f"\t{inst.s1:.6f}\t{inst.s2:.6f}\n"
            )


def read_annotations(path, queries, index):
    """Rebuild the PairSet of an annotation file.

    The set's query table is the query set's, and its positions are the
    index's, so an annotation file plus the corpus artifacts fully
    reconstruct the training data; a query with no indexed term is
    rejected. Pairs whose scores tie at the file's 6 decimals are dropped
    and counted alongside: returns (pairs, dropped ties).
    """
    query_number = {q.query_id: i for i, q in enumerate(queries)}
    query_rows = [term_index_counts(index.vocabulary, q.terms) for q in queries]
    position = {doc_id: d for d, doc_id in enumerate(index.doc_ids)}
    columns = [], [], [], [], []  # query numbers, positions and labels
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
            q = query_number.get(qid)
            if q is None:
                raise ValueError(f"{path}:{lineno}: unknown query_id {qid!r}")
            if not query_rows[q][0].size:
                raise ValueError(f"{path}:{lineno}: query {qid!r} has no indexed term")
            pos1, pos2 = position.get(d1), position.get(d2)
            if pos1 is None or pos2 is None:
                did = d1 if pos1 is None else d2
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
            for column, value in zip(columns, (q, pos1, pos2, s1, s2)):
                column.append(value)
    return PairSet(index, [q.query_id for q in queries], query_rows, *columns), dropped_ties


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
