"""Index construction, BM25, and annotation behavior."""

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
    Document,
    InvertedIndex,
    Query,
    TrainingInstance,
    Vocabulary,
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
from mimicrank.serialize import read_container, write_container


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


def test_doc_terms_preserve_multiset():
    index = build_index(docs("b a b", "c a"))
    for d in range(index.doc_count):
        text = ["b a b", "c a"][d]
        assert Counter(index.doc_terms(d)) == Counter(tokenize(text))


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


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=6),
        min_size=1,
        max_size=8,
    )
)
def test_posting_frequencies_match_naive_recount(token_lists):
    texts = [" ".join(toks) for toks in token_lists]
    index = build_index([Document(f"d{i}", t) for i, t in enumerate(texts)])
    naive = {}
    for d, t in enumerate(texts):
        for term, tf in Counter(tokenize(t)).items():
            naive.setdefault(index.vocabulary.index_of(term), []).append([d, tf])
    assert index.offsets[0] == 0
    for idx in range(len(index.vocabulary)):
        rows = index.postings[index.offsets[idx]:index.offsets[idx + 1]]
        assert rows.tolist() == naive[idx]  # doc indices ascending


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
    assert len(index.search(["a"], None)[0]) == 3


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
    # k below 1 raises (test_search_truncates_to_k); None keeps every hit
    k = data.draw(st.none() | st.integers(min_value=1, max_value=len(token_lists) + 2))
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


# ---------------------------------------------------------------------------
# Annotation


def test_annotate_empty_queryset():
    index = build_index(docs("a b", "c d"))
    instances, report = annotate_queries(index, [], seed=1)
    assert instances == []
    assert report.queries_total == 0


def test_annotate_two_doc_pool_single_pair():
    index = build_index(docs("a a", "a b"))
    queries = [Query("q1", ("a",))]
    instances, report = annotate_queries(
        index, queries, pool_size=10, pairs_per_query=1, seed=7
    )
    assert len(instances) == 1
    inst = instances[0]
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
    assert first == second
    # the index rows take no part in == or hash
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
    assert built and read == built
    terms = {q.query_id: q.terms for q in queries}
    doc_pos = {doc_id: d for d, doc_id in enumerate(index.doc_ids)}
    for inst in built + read:
        assert rows_equal(inst.query_rows,
                          term_index_counts(index.vocabulary, terms[inst.query_id]))
        for doc_id, rows in ((inst.doc1_id, inst.doc1_rows), (inst.doc2_id, inst.doc2_rows)):
            want = term_index_counts(index.vocabulary, index.doc_terms(doc_pos[doc_id]))
            assert rows_equal(rows, want)
            assert not any(a.flags.owndata for a in rows)  # views into the index
    assert "rows" not in repr(built[0])


def test_annotate_skips_thin_pools():
    index = build_index(docs("a b", "c d"))
    queries = [Query("q1", ("a",)), Query("q2", ("zzz",))]
    instances, report = annotate_queries(index, queries, pool_size=5, seed=0)
    assert report.queries_skipped == 2  # 1-doc pool and 0-doc pool both skip
    assert report.skipped_query_ids == ["q1", "q2"]
    assert instances == []


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


def test_training_instance_rejects_ties():
    with pytest.raises(ValueError):
        TrainingInstance("q", "d1", "d2", 1.0, 1.0, *[term_index_counts(Vocabulary(), ())] * 3)


# ---------------------------------------------------------------------------
# File I/O


def test_read_corpus_and_queries(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(
        '{"id": "d1", "text": "Alpha beta"}\n\n{"id": "d2", "text": "gamma"}\n',
        encoding="utf-8",
    )
    documents = read_corpus(corpus_path)
    assert [d.doc_id for d in documents] == ["d1", "d2"]
    assert documents[0].text == "Alpha beta"

    qpath = tmp_path / "queries.tsv"
    qpath.write_text("q1\talpha beta\nq2\tGamma!\n", encoding="utf-8")
    queries = read_queries(qpath)
    assert queries[0] == Query("q1", ("alpha", "beta"))
    assert queries[1].terms == ("gamma",)


def test_read_corpus_rejects_malformed_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "d1"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        read_corpus(p)


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
        assert rows_equal(rt.doc1_rows, orig.doc1_rows)
        assert rows_equal(rt.query_rows, orig.query_rows)


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
        for k in (1, 2, None):
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
