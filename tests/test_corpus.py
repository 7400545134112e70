"""Index construction, BM25, and annotation behavior."""

import dataclasses
import hashlib
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimicrank.corpus import (
    INDEX_MAGIC,
    INDEX_VERSION,
    RAW_WORDS_PER_CHUNK,
    Document,
    InvertedIndex,
    PairSet,
    Query,
    TrainingInstance,
    Vocabulary,
    _TOKEN_RE,
    _sample_scored_pairs,
    annotate_pools,
    annotate_queries,
    build_index,
    load_index,
    read_annotations,
    read_corpus,
    read_queries,
    save_index,
    term_index_counts,
    tokenize,
    write_annotations,
)
from mimicrank import seeding
from mimicrank.serialize import read_container, write_container
from mimicrank.toydata import mini_collection, synthetic_collection
from tests.index_reference import reference_arrays


def docs(*texts):
    return [Document(doc_id=f"d{i}", text=t) for i, t in enumerate(texts)]


# ---------------------------------------------------------------------------
# Tokenization and index construction


def test_tokenize_lowercases_and_splits_non_alphanumeric():
    assert tokenize("Hello, World! foo-bar_baz 42x") == [
        "hello", "world", "foo", "bar", "baz", "42x"
    ]
    assert tokenize("") == []
    assert tokenize("...!!!") == []


def test_tokenize_ascii_path_splits_every_ascii_character_like_the_pattern():
    # the translate-and-split path for ASCII text against the pattern
    for c in map(chr, range(128)):
        for text in (c, f"a{c}b", f"Ab{c}{c}Cd {c}x", f"{c}Z9{c}"):
            assert tokenize(text) == _TOKEN_RE.findall(text.lower()), repr(text)
    # the Kelvin sign lowercases to an ASCII k, and İ to i plus a combining dot
    assert tokenize("\u212aelvin x") == ["kelvin", "x"]
    assert tokenize("İstanbul") == _TOKEN_RE.findall("İstanbul".lower())


_MIXED_TEXT = st.text(st.one_of(st.characters(max_codepoint=127), st.characters(),
                                st.sampled_from("\u212a\u0130\u00df\u00e9_\u00a0\u0663")))


@settings(max_examples=300, deadline=None)
@given(_MIXED_TEXT)
def test_tokenize_equals_the_pattern_on_mixed_text(text):
    assert tokenize(text) == _TOKEN_RE.findall(text.lower())


def test_build_index_hand_counts():
    index = build_index(docs("a b", "b b c"))
    assert index.doc_count == 2
    assert index.avg_doc_length == 2.5
    assert index.doc_lengths.tolist() == [2, 3]
    assert index.vocabulary.terms == ("a", "b", "c")
    # (doc, tf) rows grouped by term: a | b b | c
    assert index.postings.tolist() == [[0, 1], [0, 1], [1, 2], [1, 1]]
    assert index.offsets.tolist() == [0, 1, 3, 4]
    assert index.df("b") == 2


def test_build_index_empty_corpus():
    index = build_index([])
    assert index.doc_count == 0
    assert index.avg_doc_length == 0.0


def test_build_index_single_doc_repeated_term():
    index = build_index(docs("x x x"))
    assert index.postings.tolist() == [[0, 3]]
    assert index.offsets.tolist() == [0, 1]
    assert index.doc_terms(0) == ("x", "x", "x")
    assert index.avg_doc_length == 3


def test_build_index_rejects_duplicate_doc_id():
    dup = [Document("same", "a"), Document("same", "b")]
    with pytest.raises(ValueError, match="same"):
        build_index(dup)
    # the first document whose id was seen before is named
    dups = [Document(i, "a") for i in ("x", "y", "y", "x")]
    with pytest.raises(ValueError, match="^duplicate doc_id: 'y'$"):
        build_index(dups)


def test_doc_terms_preserve_multiset():
    index = build_index(docs("b a b", "c a"))
    for d in range(index.doc_count):
        text = ["b a b", "c a"][d]
        assert Counter(index.doc_terms(d)) == Counter(tokenize(text))


def assert_reference_index(documents):
    index = build_index(documents)
    terms, postings, offsets, lengths = reference_arrays(documents)
    assert index.vocabulary.terms == terms
    assert index.postings.tolist() == postings
    assert index.offsets.tolist() == offsets
    assert index.doc_lengths.tolist() == lengths
    assert index.doc_lengths.dtype == index.postings.dtype == np.int64


@pytest.mark.parametrize("texts", [
    ["Straße café", "naïve Über", "plain ascii"],
    ["\u212aelvin x", "KELVIN \u212a", "k"],  # the Kelvin sign lowercases to an ASCII k
    ["ΟΔΟΣ", "ΟΔΟΣ ΟΔΟΣ.", "σοφός", "ΑΣ"],  # a final sigma, lowercased text by text
    ["İstanbul", "istanbul"],  # İ lowercases to two characters
    ["a b", " ", "  c  d ", "e\tf\ng", "h\x00i"],  # texts holding the join's space
    ["", "a", "", "", "b a", ""],
    ["", ""],
    ["Ab1", "١٢ x"],  # Arabic-Indic digits are alphanumeric to the pattern
], ids=["non-ascii", "kelvin", "final-sigma", "dotted-i", "join-space", "empty-texts",
        "all-empty", "digits"])
def test_build_index_equals_the_per_document_reference(texts):
    # the whole corpus is tokenized in one pass; every document must get
    # the tokens tokenize gives its text alone
    assert_reference_index(docs(*texts))


@settings(max_examples=200, deadline=None)
@given(st.lists(_MIXED_TEXT, max_size=6))
def test_build_index_equals_the_per_document_reference_on_mixed_text(texts):
    assert_reference_index(docs(*texts))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(st.characters(max_codepoint=127)), max_size=6))
def test_build_index_equals_the_per_document_reference_on_ascii_text(texts):
    assert_reference_index(docs(*texts))


# ---------------------------------------------------------------------------
# IDF


def test_idf_formula_values():
    # oracle: direct evaluation of ln((N+1)/(df+1))
    index = build_index(docs(*(["q filler"] * 10 + ["filler only"] * 90)))
    assert index.doc_count == 100
    assert index.df("q") == 10
    assert index.idf("q") == pytest.approx(math.log(101 / 11))


def test_idf_term_in_every_document_is_zero():
    index = build_index(docs("a x", "a y", "a z"))
    assert index.idf("a") == 0.0


def test_idf_unseen_term():
    index = build_index(docs(*(["w"] * 9)))
    assert index.doc_count == 9
    assert index.idf("never-seen") == pytest.approx(math.log(10.0))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
        min_size=1,
        max_size=12,
    )
)
def test_idf_bounds(token_lists):
    index = build_index(
        [Document(f"d{i}", " ".join(toks)) for i, toks in enumerate(token_lists)]
    )
    upper = math.log(index.doc_count + 1)
    for term in list(index.vocabulary.terms) + ["unseen"]:
        assert 0.0 <= index.idf(term) <= upper + 1e-12


# ---------------------------------------------------------------------------
# BM25


def test_bm25_no_shared_terms_is_zero():
    index = build_index(docs("a b", "c d"))
    assert index.bm25_score(["zzz", "qqq"], 0) == 0.0


def test_bm25_worked_example():
    # 2 docs of equal length: length normalizer is exactly 1, df=1, tf=1,
    # so the score collapses to ln(1 + 1.5/1.5) = ln 2.
    index = build_index(docs("a b", "c d"))
    assert index.bm25_score(["a"], 0) == pytest.approx(math.log(2.0))
    assert index.bm25_score(["a"], 1) == 0.0


def test_bm25_tf_monotone_sublinear():
    index = build_index(docs("a x", "a a", "y z"))
    s1 = index.bm25_score(["a"], 0)
    s2 = index.bm25_score(["a"], 1)
    assert s2 > s1
    assert s2 < 2 * s1


def test_bm25_repeated_query_terms_add_per_occurrence():
    index = build_index(docs("a b", "c d"))
    single = index.bm25_score(["a"], 0)
    assert index.bm25_score(["a", "a"], 0) == pytest.approx(2 * single)


def test_bm25_rejects_out_of_range_doc():
    index = build_index(docs("a"))
    with pytest.raises(ValueError):
        index.bm25_score(["a"], 1)
    with pytest.raises(ValueError):
        index.bm25_score(["a"], -1)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
        min_size=1,
        max_size=10,
    ),
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4),
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4),
)
def test_bm25_additive_over_query_terms(token_lists, q1, q2):
    index = build_index(
        [Document(f"d{i}", " ".join(toks)) for i, toks in enumerate(token_lists)]
    )
    for d in range(index.doc_count):
        combined = index.bm25_score(q1 + q2, d)
        assert combined == pytest.approx(
            index.bm25_score(q1, d) + index.bm25_score(q2, d), rel=1e-12, abs=1e-15
        )


def counter_reference_index(documents):
    """The index as a Counter per document builds it, term by term.

    Terms are numbered as each document's tokens first meet them; each
    document's (term, tf) rows are appended, then stably grouped by term.
    """
    number, doc_lengths, rows = {}, [], []
    for d, doc in enumerate(documents):
        terms = tokenize(doc.text)
        doc_lengths.append(len(terms))
        counts = Counter(number.setdefault(t, len(number)) for t in terms)
        rows.extend((t, d, tf) for t, tf in counts.items())
    rows.sort(key=lambda row: row[0])  # stable: a term's rows stay in doc order
    terms_col = np.array([t for t, _, _ in rows], dtype=np.int64)
    postings = np.array([(d, tf) for _, d, tf in rows], dtype=np.int64).reshape(-1, 2)
    offsets = np.searchsorted(terms_col, np.arange(len(number) + 1))
    return InvertedIndex(Vocabulary(number), postings, offsets,
                         [doc.doc_id for doc in documents],
                         np.array(doc_lengths, dtype=np.int64))


# words with underscores (separators), upper case and non-ASCII letters;
# a document may be empty or hold only separators
_BUILD_WORDS = ["a", "B", "a_b", "_", "é", "Straße", "STRASSE", "дом", "ДОМ",
                "x1", "42", "naïve-café", "..."]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_BUILD_WORDS), max_size=6), max_size=8))
def test_posting_frequencies_match_naive_recount(token_lists):
    documents = [Document(f"d{i}", " ".join(toks)) for i, toks in enumerate(token_lists)]
    index = build_index(documents)
    reference = counter_reference_index(documents)
    assert index.vocabulary.terms == reference.vocabulary.terms  # first-appearance order
    for name in ("offsets", "postings", "doc_lengths", "impacts"):
        built, expected = getattr(index, name), getattr(reference, name)
        assert built.dtype == expected.dtype and built.shape == expected.shape, name
        assert built.tobytes() == expected.tobytes(), name
    for d in range(index.doc_count):
        assert Counter(index.doc_terms(d)) == Counter(tokenize(documents[d].text))


# ---------------------------------------------------------------------------
# Search


def test_search_ranks_by_score_then_doc_id():
    # d1 and d3 tie exactly (same tf, same length): ascending doc_id breaks it.
    documents = [
        Document("d3", "a x"),
        Document("d1", "a y"),
        Document("d2", "b c"),
    ]
    index = build_index(documents)
    ids, scores = index.search(["a"], 10)
    assert [index.doc_ids[d] for d in ids] == ["d1", "d3"]
    assert scores[0] == scores[1]


def test_search_truncates_to_k():
    index = build_index(docs("a", "a b", "a b c", "q"))
    ids, scores = index.search(["a"], 2)
    assert len(ids) == 2
    assert scores == sorted(scores, reverse=True)
    # a negative k used to slice hits off the end of the ranking
    for k in (0, -1, -3):
        with pytest.raises(ValueError, match="k must be at least 1"):
            index.search(["a"], k)
    # a k above the number of hits keeps every hit
    assert len(index.search(["a"], 10)[0]) == 3


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abcd"), max_size=5), min_size=1, max_size=12),
    st.lists(st.sampled_from("abcdz"), max_size=6),
    st.data(),
)
def test_search_scores_match_direct_evaluation(token_lists, query, data):
    # shuffled ids put doc_id order apart from doc index order, and the small
    # alphabet makes equal documents, hence exact score ties, common
    ids = data.draw(st.permutations(range(len(token_lists))))
    index = build_index(
        [Document(f"d{i}", " ".join(toks)) for i, toks in zip(ids, token_lists)])
    # k below 1 raises (test_search_truncates_to_k)
    k = data.draw(st.integers(min_value=1, max_value=len(token_lists) + 2))
    holders = [d for d in range(index.doc_count) if set(query) & set(index.doc_terms(d))]
    expected = sorted(holders, key=lambda d: (-index.bm25_score(query, d),
                                               index.doc_ids[d]))[:k]
    got, scores = index.search(query, k)
    assert got == expected
    assert scores == [index.bm25_score(query, d) for d in expected]
    assert all(type(d) is int for d in got) and all(type(s) is float for s in scores)
    # the dense accumulation behind search and the BM25 labels, bit for bit
    assert index.bm25_scores(query).tolist() == [
        index.bm25_score(query, d) for d in range(index.doc_count)]
    assert np.all(index.impacts > 0)  # so a hit is exactly a score above 0


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abcd"), max_size=5), min_size=1, max_size=12),
    st.lists(st.sampled_from("abcdyz"), max_size=6),
    st.data(),
)
def test_search_at_a_smaller_k_is_a_prefix(token_lists, query, data):
    # the rank stage searches once at the largest depth and cuts it for the
    # bm25 run, the model runs' pools and the agreement pools: equal
    # documents tie, shuffled ids part doc_id order from index order, and
    # the query repeats terms and holds some out of the vocabulary
    ids = data.draw(st.permutations(range(len(token_lists))))
    index = build_index(
        [Document(f"d{i}", " ".join(toks)) for i, toks in zip(ids, token_lists)])
    big = data.draw(st.integers(min_value=1, max_value=len(token_lists) + 2))
    small = data.draw(st.integers(min_value=1, max_value=big))
    docs, scores = index.search(query, big)
    assert index.search(query, small) == (docs[:small], scores[:small])


# ---------------------------------------------------------------------------
# Annotation


def test_annotate_empty_queryset():
    index = build_index(docs("a b", "c d"))
    instances, report = annotate_queries(index, [], seed=1)
    assert len(instances) == 0 and list(instances) == []
    assert report.queries_total == 0


def test_annotate_two_doc_pool_single_pair():
    index = build_index(docs("a a", "a b"))
    queries = [Query("q1", ("a",))]
    instances, report = annotate_queries(
        index, queries, pool_size=10, pairs_per_query=1, seed=7
    )
    assert len(instances) == 1
    [inst] = instances
    pos = {doc_id: i for i, doc_id in enumerate(index.doc_ids)}
    # labels must match an independent recomputation and the pool's search
    assert inst.s1 == index.bm25_score(["a"], pos[inst.doc1_id])
    assert inst.s2 == index.bm25_score(["a"], pos[inst.doc2_id])
    searched = dict(zip(*index.search(["a"], 10)))
    assert (inst.s1, inst.s2) == (searched[pos[inst.doc1_id]], searched[pos[inst.doc2_id]])
    assert report.pairs_emitted == 1


def test_annotate_queries_searches_once_per_query(monkeypatch):
    index = build_index(docs("a b c", "a a d", "b d", "c c a", "e f", "b b c"))
    queries = [Query("q1", ("a", "b")), Query("q2", ("c", "zzz", "c")),
               Query("q3", ("zzz",))]
    search = InvertedIndex.search
    calls = []

    def counting_search(self, query_terms, k):
        calls.append((tuple(query_terms), k))
        return search(self, query_terms, k)

    monkeypatch.setattr(InvertedIndex, "search", counting_search)
    instances, report = annotate_queries(index, queries, pool_size=4,
                                         pairs_per_query=5, seed=2)
    assert calls == [(q.terms, 4) for q in queries]
    assert report.queries_annotated == 2 and instances
    # every label is its document's score in the pool's one search
    pos = {doc_id: d for d, doc_id in enumerate(index.doc_ids)}
    terms = {q.query_id: q.terms for q in queries}
    for inst in instances:
        searched = dict(zip(*search(index, terms[inst.query_id], 4)))
        assert inst.s1 == searched[pos[inst.doc1_id]]
        assert inst.s2 == searched[pos[inst.doc2_id]]


def test_annotate_deterministic_across_runs():
    index = build_index(docs("a b c", "a a d", "b d", "c c a", "e f"))
    queries = [Query("q1", ("a", "b")), Query("q2", ("c",))]
    first, _ = annotate_queries(index, queries, pool_size=5, pairs_per_query=3, seed=42)
    second, _ = annotate_queries(index, queries, pool_size=5, pairs_per_query=3, seed=42)
    assert list(first) == list(second)
    assert [hash(inst) for inst in first] == [hash(inst) for inst in second]


def rows_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def test_instances_carry_index_rows(tmp_path):
    index = build_index(docs("a b c", "a a d", "b d", "c c a", "e f"))
    queries = [Query("q1", ("a", "b", "zzz", "a")), Query("q2", ("c", "e"))]
    built, _ = annotate_pools(index, queries, lambda q, pool, qpos: [float(d) for d in pool],
                              pool_size=5, pairs_per_query=4, seed=1)
    path = tmp_path / "ann.tsv"
    write_annotations(path, built)
    read, _ = read_annotations(path, queries, index)
    assert len(built) and list(read) == list(built)
    terms = {q.query_id: q.terms for q in queries}
    for pairs in (built, read):
        # one row per query number, and documents as positions in the index
        assert pairs.index is index
        for q in set(pairs.query.tolist()):
            assert rows_equal(pairs.query_rows[q], term_index_counts(
                index.vocabulary, terms[pairs.query_ids[q]]))
        for inst, d1, d2 in zip(pairs, pairs.doc1.tolist(), pairs.doc2.tolist()):
            assert (index.doc_ids[d1], index.doc_ids[d2]) == (inst.doc1_id, inst.doc2_id)
            for d in (d1, d2):
                want = term_index_counts(index.vocabulary, index.doc_terms(d))
                assert rows_equal(index.doc_rows(d), want)
                assert not any(a.flags.owndata for a in index.doc_rows(d))  # views
    assert {f.name for f in dataclasses.fields(TrainingInstance)} == {
        "query_id", "doc1_id", "doc2_id", "s1", "s2"}
    assert "rows" not in repr(next(iter(built)))


def test_annotate_skips_thin_pools():
    index = build_index(docs("a b", "c d"))
    queries = [Query("q1", ("a",)), Query("q2", ("zzz",))]
    instances, report = annotate_queries(index, queries, pool_size=5, seed=0)
    assert report.queries_skipped == 2  # 1-doc pool and 0-doc pool both skip
    assert report.skipped_query_ids == ["q1", "q2"]
    assert len(instances) == 0


def test_annotate_never_emits_ties():
    # many exact ties in the pool: same text -> same score
    texts = ["a x"] * 6 + ["a a", "a y b"]
    index = build_index(docs(*texts))
    queries = [Query("q", ("a",))]
    instances, report = annotate_queries(
        index, queries, pool_size=10, pairs_per_query=30, seed=3
    )
    for inst in instances:
        assert inst.s1 != inst.s2
    assert report.ties_discarded > 0


def test_annotate_rejects_tiny_pool_size():
    index = build_index(docs("a"))
    with pytest.raises(ValueError):
        annotate_queries(index, [], pool_size=1, seed=0)


def reference_sample_scored_pairs(n_pool, labels, pairs_per_query, rng, max_attempts):
    """The pair sampler as it read when it called Generator.choice per draw."""
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


# both sides of the 10,000-element branch of Generator.choice, a range
# whose draws of a and v both reject about half the words, and the largest
# range the 32-bit draw covers
CHOICE_POOL_SIZES = (2, 3, 30, 50, 10**4, 10**4 + 1, 10**5, 2**31 + 2, 2**32 - 1)


def test_pair_draws_equal_generator_choice_draw_for_draw():
    # distinct labels, so every draw of a new pair is kept; in the large
    # pools no draw repeats a pair, so all 200 draws are compared one by one
    for n in CHOICE_POOL_SIZES:
        for seed in range(100):
            got = _sample_scored_pairs(n, range(n), 200, seeding.rng(seed, n, 0), 200)
            want = reference_sample_scored_pairs(n, range(n), 200,
                                                 seeding.rng(seed, n, 0), 200)
            assert got == want, (n, seed)
            if n >= 10**4:
                assert len(got[0]) == 200, (n, seed)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 60).flatmap(lambda n: st.tuples(
           st.just(n), st.lists(st.integers(0, 3), min_size=n, max_size=n))),
       st.integers(-1, 40), st.integers(0, 300), st.integers(0, 2**32 - 1))
def test_pair_sampler_equals_the_generator_choice_sampler(pool, pairs_per_query,
                                                          max_attempts, seed):
    n, labels = pool  # few label values, so ties are common
    got = _sample_scored_pairs(n, labels, pairs_per_query, seeding.rng(seed), max_attempts)
    want = reference_sample_scored_pairs(n, labels, pairs_per_query, seeding.rng(seed),
                                         max_attempts)
    assert got == want


def test_pair_draws_reject_pools_outside_the_32_bit_draw():
    for n in (1, 2**32):
        with pytest.raises(ValueError, match="2 <= n < 2\\*\\*32"):
            _sample_scored_pairs(n, range(n), 1, seeding.rng(0), 50)


class HandBuiltWords:
    """An rng whose bit generator's 32-bit words are `words` and no more.

    An odd count is padded with a 0 word. A decoder that wants more words
    than it is given fails instead of drawing on.
    """

    def __init__(self, words):
        self.words = list(words) + [0] * (len(words) % 2)
        self.bit_generator = self

    def random_raw(self, size):
        if not self.words:
            raise AssertionError("the hand-built words are used up")
        take, self.words = self.words[:2 * size], self.words[2 * size:]
        return np.array(take, dtype="<u4").view("<u8")


def test_bounded_rejects_a_biased_word_and_draws_again():
    # n = 2**31 + 2: a is drawn over [0, r] with r = 2**31, so r + 1 = 2**31 + 1
    # and the threshold (2**32 - 1 - r) % (r + 1) = 2**31 - 1. v is drawn
    # over r = 2**31 + 1 with threshold 2**31 - 2, and the swap word's top bit
    # set keeps (a, b) in order.
    # draw 1: word 0 gives m = 0, low half 0 < threshold, rejected; word 5
    # gives m = 5·(2**31 + 1) = 2**33 + 2**31 + 5, low half 2**31 + 5, kept:
    # a = m >> 32 = 2; word 7 gives v = 7·(2**31 + 2) >> 32 = 3 = b
    # draw 2: the threshold is a strict bound: word 2**32 - 1 gives
    # m = 2**63 + 2**31 - 1, low half 2**31 - 1, kept: a = r; v = 3 again,
    # and a swap word of 0 swaps the two
    n = 2**31 + 2
    words = [0, 5, 7, 2**31, 2**32 - 1, 7, 0]
    assert _sample_scored_pairs(n, range(n), 2, HandBuiltWords(words), 2) == (
        [(2, 3), (3, 2**31)], 0)


def test_bounded_over_one_value_consumes_nothing():
    # n = 2: a is drawn over [0, 0], 0 with no word; v's word 2**31 gives
    # v = 1 = b, and the swap word 0 swaps the two. Had a taken the first
    # word, v = 0 = a would give b = 1 and the swap word 2**31 no swap.
    words = [2**31, 0, 2**31]
    assert _sample_scored_pairs(2, [0.0, 1.0], 1, HandBuiltWords(words), 1) == (
        [(1, 0)], 0)


def test_pair_draws_run_ahead_in_chunks_of_raw_words():
    rng = seeding.rng(4)
    _sample_scored_pairs(50, range(50), 1, rng, 1)
    ahead = seeding.rng(4)
    ahead.bit_generator.random_raw(RAW_WORDS_PER_CHUNK)
    assert rng.bit_generator.state == ahead.bit_generator.state


# SHA-256 of the annotation file below as the pair stream wrote it when it
# still called Generator.choice per draw; a change of numpy or of the
# sampler that moves the stream changes every annotation artifact
PINNED_ANNOTATIONS_SHA256 = (
    "d766cba155cb3b267989176c9bc062f3beedcf6101b6fe8331873413d3c1a676")


def test_annotation_pair_stream_pinned_to_bytes(tmp_path):
    collection = mini_collection(seed=3)
    index = build_index(collection.documents)
    instances, report = annotate_queries(
        index, collection.train_queries + collection.unlabeled_queries,
        pool_size=30, pairs_per_query=15, seed=12345)
    assert (report.pairs_emitted, report.ties_discarded) == (1200, 1)
    write_annotations(tmp_path / "pinned.tsv", instances)
    digest = hashlib.sha256((tmp_path / "pinned.tsv").read_bytes()).hexdigest()
    assert digest == PINNED_ANNOTATIONS_SHA256


# SHA-256 of index.bin for synthetic_collection(n_docs=600, seed=5), as the
# Counter-per-document build wrote it; the index format and its build must
# keep these bytes
PINNED_INDEX_SHA256 = (
    "13935e88f83a986453c1969882a46762d0ca11a7cd691d5b48717c44c7827947")


def test_index_file_pinned_to_bytes(tmp_path):
    collection = synthetic_collection(n_docs=600, seed=5)
    save_index(tmp_path / "index.bin", build_index(collection.documents))
    digest = hashlib.sha256((tmp_path / "index.bin").read_bytes()).hexdigest()
    assert digest == PINNED_INDEX_SHA256


def test_training_instance_rejects_ties():
    with pytest.raises(ValueError):
        TrainingInstance("q", "d1", "d2", 1.0, 1.0)
    # a PairSet checks its whole label columns at once
    index = build_index(docs("a b", "a c"))
    with pytest.raises(ValueError, match="tied label scores for query 'q2'"):
        PairSet(index, ["q1", "q2"], [None, None], [0, 1, 1], [0, 0, 1], [1, 1, 0],
                [2.0, 1.5, 3.0], [1.0, 1.5, 3.0])


# ---------------------------------------------------------------------------
# File I/O


def test_read_corpus_and_queries(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(
        '{"id": "d1", "text": "Alpha beta"}\n\n{"id": 2, "text": "gamma"}\n',
        encoding="utf-8",
    )
    documents = read_corpus(corpus_path)
    assert [d.doc_id for d in documents] == ["d1", "2"]  # an integer id, as decimal
    assert documents[0].text == "Alpha beta"

    qpath = tmp_path / "queries.tsv"
    qpath.write_text("q1\talpha beta\nq2\tGamma!\n", encoding="utf-8")
    queries = read_queries(qpath)
    assert queries[0] == Query("q1", ("alpha", "beta"))
    assert queries[1].terms == ("gamma",)


@pytest.mark.parametrize("record", [
    '{"id": "d1"}',
    '{"text": "a"}',
    '{"id": "d1", "text": "a"',
    '["d1", "a"]',
    '{"id": "d1", "text": null}',
    '{"id": "d1", "text": ["a", "b"]}',
    '{"id": "d1", "text": 7}',
    '{"id": null, "text": "a"}',
    '{"id": true, "text": "a"}',
    '{"id": 1.5, "text": "a"}',
    '{"id": ["d1"], "text": "a"}',
], ids=["no-text", "no-id", "not-json", "not-object", "text-null", "text-list",
        "text-number", "id-null", "id-boolean", "id-float", "id-list"])
def test_read_corpus_rejects_malformed_line(tmp_path, record):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "d0", "text": "fine"}\n' + record + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        read_corpus(p)


@pytest.mark.parametrize("doc_id", ['""', '"doc 0"', '" d1"', '"d1\\t"', '"d\\n1"'],
                         ids=["empty", "space", "leading-space", "tab", "newline"])
def test_read_corpus_rejects_ids_a_run_file_cannot_hold(tmp_path, doc_id):
    # a run line or a qrels line is split on whitespace, so such an id
    # would write a run file that read_run rejects, and never be judged
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "d0", "text": "fine"}\n{"id": ' + doc_id + ', "text": "a"}\n',
                 encoding="utf-8")
    with pytest.raises(ValueError, match="bad.jsonl:2: a document id .* is empty or "
                                         "holds whitespace"):
        read_corpus(p)


def test_read_corpus_reads_blank_lines_crlf_and_integer_ids(tmp_path):
    p = tmp_path / "corpus.jsonl"
    p.write_bytes(b'\r\n{"id": 7, "text": "a b"}\r\n  \r\n\t{"id": "d8", "text": ""} \r\n'
                  b'\n{"id": -3, "text": "\\u00e9 \\"q\\""}')
    assert read_corpus(p) == [Document("7", "a b"), Document("d8", ""), Document("-3", 'é "q"')]
    p.write_text("", encoding="utf-8")
    assert read_corpus(p) == []


def _line_alone_error(line):
    try:
        json.loads(line)
    except json.JSONDecodeError as exc:
        return str(exc)
    raise AssertionError(f"{line!r} parses alone")


@pytest.mark.parametrize("record, problem", [
    ('{"id": "d1", "text": "a"', None),
    ('{"id": "d1", "text": "a"} x', None),
    ('{"id": "d1"}', "'text'"),
    ('{"text": "a"}', "'id'"),
    ('{"id": "d1", "text": ["a"]}', "text must be a string, got ['a']"),
    ('{"id": true, "text": "a"}', "id must be a string or an integer, got True"),
], ids=["bad-json", "extra-data", "no-text", "no-id", "text-list", "id-boolean"])
def test_read_corpus_message_names_the_line_and_its_fault(tmp_path, record, problem):
    # bad JSON reads as the error of parsing that line alone
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "d0", "text": "fine"}\n\n' + record + '\n{"id": "d3", "text": "x"}\n',
                 encoding="utf-8")
    problem = problem or _line_alone_error(record)
    with pytest.raises(ValueError) as err:
        read_corpus(p)
    assert str(err.value) == f"{p}:3: malformed corpus record: {problem}"


def test_read_corpus_message_for_an_id_holding_whitespace(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "d0", "text": "fine"}\n{"id": "d 1", "text": "a"}\n', encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_corpus(p)
    assert str(err.value) == f"{p}:2: a document id 'd 1' is empty or holds whitespace"


@pytest.mark.parametrize("lines", [
    # line 1 holds two records and lines 2 and 3 one between them, so the
    # file's lines parse as an array of three records
    ['{"id": "a", "text": "x"}, {"id": "b", "text": "y"}',
     '{"id": "c", "text": "z", "more": [{}', '{}]}'],
    # brackets and escaped quotes inside strings do not count
    ['{"id": "a", "text": "]}"}, {"id": "b", "text": "\\"[{"}',
     '{"id": "c", "text": "\\\\", "more": [[{}', '{}]]}'],
], ids=["plain", "brackets-in-strings"])
def test_read_corpus_rejects_lines_that_parse_only_together(tmp_path, lines):
    p = tmp_path / "bad.jsonl"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert len(json.loads("[" + ",\n".join(lines) + "]")) == len(lines)
    with pytest.raises(ValueError) as err:
        read_corpus(p)
    assert str(err.value) == (f"{p}:1: malformed corpus record: "
                              f"{_line_alone_error(lines[0])}")


@pytest.mark.parametrize("qid", ["", "q 1", " q1", "q1 "],
                         ids=["empty", "space", "leading-space", "trailing-space"])
def test_read_queries_rejects_ids_a_run_file_cannot_hold(tmp_path, qid):
    p = tmp_path / "q.tsv"
    p.write_text(f"q0\ta\n{qid}\tb\n", encoding="utf-8")
    with pytest.raises(ValueError, match="q.tsv:2: a query_id .* is empty or holds whitespace"):
        read_queries(p)


def test_read_queries_rejects_duplicates_and_missing_tab(tmp_path):
    p = tmp_path / "q.tsv"
    p.write_text("q1\ta\nq1\tb\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        read_queries(p)
    p.write_text("no tab here\n", encoding="utf-8")
    with pytest.raises(ValueError, match="TAB"):
        read_queries(p)


def test_annotation_file_round_trip(tmp_path):
    index = build_index(docs("a b c", "a a d", "b d", "c c a"))
    queries = [Query("q1", ("a", "b")), Query("q2", ("c",))]
    instances, _ = annotate_queries(index, queries, pool_size=4, pairs_per_query=2, seed=9)
    path = tmp_path / "ann.tsv"
    write_annotations(path, instances)
    back, dropped = read_annotations(path, queries, index)
    assert dropped == 0
    assert len(back) == len(instances)
    for orig, rt in zip(instances, back):
        assert rt.query_id == orig.query_id
        assert (rt.doc1_id, rt.doc2_id) == (orig.doc1_id, orig.doc2_id)
        # 6-decimal format bounds the score error
        assert rt.s1 == pytest.approx(orig.s1, abs=5e-7)
    np.testing.assert_array_equal(back.doc1, instances.doc1)
    np.testing.assert_array_equal(back.doc2, instances.doc2)
    for q, q_back in zip(instances.query.tolist(), back.query.tolist()):
        assert rows_equal(back.query_rows[q_back], instances.query_rows[q])


def test_annotation_lines_are_each_pair_formatted(tmp_path):
    # written from the columns, one line per pair as its TrainingInstance reads
    index = build_index(docs("a b", "a c", "b c"))
    pairs = PairSet(index, ["q1", "q2"], [None, None], [0, 1, 1, 0], [0, 2, 1, 2],
                    [1, 0, 2, 1], [2.5, -1e-7, 1e9, 0.1234565], [1.0, 3.0, -0.5, 1 / 3])
    path = tmp_path / "ann.tsv"
    write_annotations(path, pairs)
    assert path.read_text(encoding="utf-8") == "".join(
        f"{p.query_id}\t{p.doc1_id}\t{p.doc2_id}\t{p.s1:.6f}\t{p.s2:.6f}\n" for p in pairs)
    assert path.read_text(encoding="utf-8").splitlines()[1] == "q2\td2\td0\t-0.000000\t3.000000"


def test_read_annotations_drops_rounded_ties(tmp_path):
    index = build_index(docs("a b", "a c"))
    queries = [Query("q1", ("a",))]
    path = tmp_path / "ann.tsv"
    path.write_text("q1\td0\td1\t1.000000\t1.000000\nq1\td0\td1\t1.000000\t2.000000\n")
    back, dropped = read_annotations(path, queries, index)
    assert dropped == 1
    assert len(back) == 1


def test_read_annotations_rejects_unknown_ids(tmp_path):
    index = build_index(docs("a b", "a c"))
    queries = [Query("q1", ("a",))]
    path = tmp_path / "ann.tsv"
    path.write_text("q9\td0\td1\t1.000000\t2.000000\n")
    with pytest.raises(ValueError, match="q9"):
        read_annotations(path, queries, index)
    path.write_text("q1\tnope\td1\t1.000000\t2.000000\n")
    with pytest.raises(ValueError, match="nope"):
        read_annotations(path, queries, index)


def test_read_annotations_rejects_query_without_indexed_terms(tmp_path):
    index = build_index(docs("a b", "a c"))
    queries = [Query("q1", ("a",)), Query("q2", ("zzz",)), Query("q3", ())]
    path = tmp_path / "ann.tsv"
    for qid in ("q2", "q3"):
        path.write_text(f"q1\td0\td1\t1.000000\t2.000000\n"
                        f"{qid}\td0\td1\t1.000000\t2.000000\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:2: query {qid!r} has no indexed term")):
            read_annotations(path, queries, index)


@pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN"])
def test_read_annotations_rejects_non_finite_scores(tmp_path, score):
    index = build_index(docs("a b", "a c"))
    queries = [Query("q1", ("a",))]
    path = tmp_path / "ann.tsv"
    for line in (f"q1\td0\td1\t{score}\t1.000000\n",
                 f"q1\td0\td1\t1.000000\t{score}\n"):
        path.write_text("q1\td0\td1\t1.000000\t2.000000\n" + line)
        with pytest.raises(ValueError, match=f"{path}:2: non-finite score"):
            read_annotations(path, queries, index)


def test_index_save_load_round_trip(tmp_path):
    index = build_index(docs("a b c", "a a d", "b d", ""))
    path = tmp_path / "index.bin"
    save_index(path, index)
    # the on-disk layout, counted by hand: (doc, tf) pairs of a | b | c | d
    meta, arrays = read_container(path, INDEX_MAGIC, INDEX_VERSION)
    assert meta["vocabulary"] == ["a", "b", "c", "d"]
    assert arrays["postings_flat"].tolist() == [0, 1, 1, 2, 0, 1, 2, 1, 0, 1, 1, 1, 2, 1]
    assert arrays["postings_offsets"].tolist() == [0, 2, 4, 5, 7]
    assert arrays["doc_lengths"].tolist() == [3, 3, 2, 0]
    loaded = load_index(path)
    assert loaded.doc_ids == index.doc_ids
    assert np.array_equal(loaded.doc_lengths, index.doc_lengths)
    assert loaded.vocabulary == index.vocabulary
    assert np.array_equal(loaded.postings, index.postings)
    assert np.array_equal(loaded.offsets, index.offsets)
    assert loaded.avg_doc_length == index.avg_doc_length
    assert [loaded.doc_terms(d) for d in range(4)] == [index.doc_terms(d) for d in range(4)]
    # impacts are derived at load, not stored: bitwise those of the built index
    assert loaded.impacts.tobytes() == index.impacts.tobytes()
    for query in (["a"], ["d", "b", "a"], ["c", "zzz", "c"], ["zzz"]):
        for k in (1, 2, 4):  # 4 keeps every hit
            assert loaded.search(query, k) == index.search(query, k)
    # rewriting the loaded index reproduces the file byte for byte
    path2 = tmp_path / "index2.bin"
    save_index(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def _set(position, value):
    def edit(arr):
        arr = arr.copy()
        arr[position] = value
        return arr

    return edit


# index of docs("a b c", "a a d", "b d"): postings_flat pairs a (0,1) (1,2) |
# b (0,1) (2,1) | c (0,1) | d (1,1) (2,1), offsets [0, 2, 4, 5, 7], lengths
# [3, 3, 2]; each corruption breaks one rule and the load names the array
@pytest.mark.parametrize("array, edit", [
    ("postings_offsets", lambda a: np.append(a, 7)),  # |V| + 2 entries
    ("postings_offsets", _set(0, 1)),  # does not start at 0
    ("postings_offsets", _set(1, 5)),  # decreases
    ("postings_offsets", _set(4, 6)),  # does not end at nnz
    ("postings_flat", lambda a: a[:-1]),  # not (doc, tf) pairs
    ("postings_flat", _set(0, -1)),  # negative doc index
    ("postings_flat", _set(2, 3)),  # doc index == N
    ("postings_flat", lambda a: np.concatenate([a[2:4], a[0:2], a[4:]])),  # a's docs 1, 0
    ("postings_flat", _set(6, 0)),  # b's docs 0, 0
    ("postings_flat", _set(1, 0)),  # tf 0
    ("doc_lengths", lambda a: np.append(a, 0)),  # N + 1 entries
    ("doc_lengths", _set(1, 4)),  # not the tf sum of doc 1
], ids=["offsets-length", "offsets-start", "offsets-decrease", "offsets-end",
        "flat-odd", "doc-negative", "doc-too-large", "docs-unsorted",
        "docs-repeated", "tf-zero", "lengths-count", "lengths-sum"])
def test_load_index_rejects_corrupt_arrays(tmp_path, array, edit):
    path = tmp_path / "index.bin"
    save_index(path, build_index(docs("a b c", "a a d", "b d")))
    meta, arrays = read_container(path, INDEX_MAGIC, INDEX_VERSION)
    arrays[array] = edit(arrays[array])
    write_container(path, INDEX_MAGIC, INDEX_VERSION, meta, list(arrays.items()))
    with pytest.raises(ValueError) as err:
        load_index(path)
    assert str(path) in str(err.value) and array in str(err.value)
