"""Synthetic topical collections for end-to-end runs and benchmarks.

Documents mix terms from one topic vocabulary with skewed background noise;
queries are small sets of topic terms and every same-topic document counts
as relevant. Adjacent topics share half their vocabulary, so term matching
alone pulls confusable off-topic documents into every candidate pool and
retrieval quality stays away from the ceiling. That keeps teacher-vs-student
comparisons meaningful at desk scale.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import seeding
from .corpus import Document, Query, tokenize
from .serialize import atomic_write


@dataclass
class Collection:
    documents: list
    train_queries: list
    unlabeled_queries: list
    eval_queries: list
    qrels: dict  # query_id -> {doc_id: grade}
    doc_topics: dict  # doc_id -> topic index


def _make_queries(prefix, count, n_topics, topic_vocabs, rng):
    queries = []
    topics = {}
    for i in range(count):
        topic = int(rng.integers(n_topics))
        n_terms = int(rng.integers(3, 6))
        terms = rng.choice(topic_vocabs[topic], size=n_terms, replace=False)
        qid = f"{prefix}{i:03d}"
        queries.append(Query(qid, tuple(str(t) for t in terms)))
        topics[qid] = topic
    return queries, topics


def synthetic_collection(n_docs=2000, n_topics=10, n_train=200, n_unlabeled=200,
                         n_eval=60, seed=0, topic_terms=30, background_terms=150,
                         doc_len_range=(30, 61), topic_fraction=(0.25, 0.95)):
    """Build a topical collection with train/unlabeled/eval query splits.

    topic_fraction is a (low, high) range: each document draws its own
    topical intensity, so same-topic documents differ in how strongly they
    match a query. Without that spread, candidate pools collapse into
    score ties and pairwise training signal degenerates. A single float is
    accepted for a fixed fraction.
    """
    # sliding half-overlapping windows over one topical word list: topic t
    # shares topic_terms/2 words with topic t+1
    stride = max(1, topic_terms // 2)
    words = [f"tw{j}" for j in range(stride * (n_topics - 1) + topic_terms)]
    topic_vocabs = [
        words[t * stride:t * stride + topic_terms] for t in range(n_topics)
    ]
    background = [f"bg{j}" for j in range(background_terms)]
    bg_weights = 1.0 / np.arange(1, background_terms + 1)
    bg_weights /= bg_weights.sum()

    if isinstance(topic_fraction, (int, float)):
        topic_fraction = (float(topic_fraction), float(topic_fraction))
    doc_rng = seeding.rng(seed, 0)
    documents = []
    doc_topics = {}
    for i in range(n_docs):
        topic = i % n_topics
        doc_id = f"d{i:04d}"
        length = int(doc_rng.integers(*doc_len_range))
        fraction = doc_rng.uniform(*topic_fraction)
        n_topical = int(round(fraction * length))
        topical = doc_rng.choice(topic_vocabs[topic], size=n_topical, replace=True)
        noise = doc_rng.choice(background, size=length - n_topical,
                               replace=True, p=bg_weights)
        tokens = list(map(str, topical)) + list(map(str, noise))
        doc_rng.shuffle(tokens)
        documents.append(Document(doc_id, " ".join(tokens)))
        doc_topics[doc_id] = topic

    train_queries, train_topics = _make_queries("qt", n_train, n_topics,
                                                topic_vocabs, seeding.rng(seed, 1))
    unlabeled_queries, _ = _make_queries("qu", n_unlabeled, n_topics, topic_vocabs,
                                         seeding.rng(seed, 2))
    eval_queries, eval_topics = _make_queries("qe", n_eval, n_topics, topic_vocabs,
                                              seeding.rng(seed, 3))

    # judgments cover train and eval queries (train-side grades feed the
    # fully supervised mode; unlabeled queries stay unjudged by design);
    # grade 2 = same topic and at least two distinct query terms present,
    # grade 1 = same topic only, so topical candidate pools still contain
    # contrasting grades for pair sampling
    doc_terms = {doc.doc_id: set(tokenize(doc.text)) for doc in documents}
    query_by_id = {q.query_id: q for q in train_queries + eval_queries}
    qrels = {}
    for qid, topic in list(train_topics.items()) + list(eval_topics.items()):
        wanted = set(query_by_id[qid].terms)
        graded = {}
        for doc_id, t in doc_topics.items():
            if t != topic:
                continue
            graded[doc_id] = 2 if len(wanted & doc_terms[doc_id]) >= 2 else 1
        qrels[qid] = graded
    return Collection(
        documents=documents,
        train_queries=train_queries,
        unlabeled_queries=unlabeled_queries,
        eval_queries=eval_queries,
        qrels=qrels,
        doc_topics=doc_topics,
    )


def mini_collection(seed=0):
    """Small variant for fast determinism and reduction checks."""
    return synthetic_collection(
        n_docs=300, n_topics=5, n_train=40, n_unlabeled=40, n_eval=15,
        seed=seed, topic_terms=20, background_terms=80,
        doc_len_range=(20, 41),
    )


def write_collection(collection, directory):
    """Materialize the collection in the external file formats.

    Returns a dict of the written paths (corpus, three query files, qrels).
    Each file is written through atomic_write, so none looks complete after
    a failed or killed write.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": directory / "corpus.jsonl",
        "queries_train": directory / "queries_train.tsv",
        "queries_unlabeled": directory / "queries_unlabeled.tsv",
        "queries_eval": directory / "queries_eval.tsv",
        "qrels": directory / "qrels.txt",
    }
    with atomic_write(paths["corpus"]) as fh:
        for doc in collection.documents:
            fh.write(json.dumps({"id": doc.doc_id, "text": doc.text}) + "\n")
    for key, queries in (
        ("queries_train", collection.train_queries),
        ("queries_unlabeled", collection.unlabeled_queries),
        ("queries_eval", collection.eval_queries),
    ):
        with atomic_write(paths[key]) as fh:
            for q in queries:
                fh.write(f"{q.query_id}\t{' '.join(q.terms)}\n")
    with atomic_write(paths["qrels"]) as fh:
        for qid in sorted(collection.qrels):
            for doc_id in sorted(collection.qrels[qid]):
                fh.write(f"{qid} 0 {doc_id} {collection.qrels[qid][doc_id]}\n")
    return paths
