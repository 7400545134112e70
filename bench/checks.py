"""Output checks made apart from the program.

Nothing here imports mimicrank. The collection is re-read and re-tokenized
from the input files, BM25 is recomputed over every document, checkpoints
are parsed from their documented byte layout and scored with a plain numpy
forward, and the rank metrics are recomputed from the run files. Each check
returns a list of problems; an empty list means it passed.
"""

import hashlib
import json
import math
import re
import struct
from collections import Counter
from pathlib import Path

import numpy as np

K1 = 1.2
B = 0.75
EXACT = 1e-9
# a printed score carries 6 decimals, so it may sit half a unit of the last
# place away from the full-precision value
PRINTED = 0.5e-6 + EXACT

_TOKEN = re.compile(r"[^\W_]+")


def tokenize(text):
    return _TOKEN.findall(text.lower())


# ---------------------------------------------------------------------------
# Inputs and the benchmark's own BM25


class Collection:
    """Corpus, queries and qrels read straight from the workload's files."""

    def __init__(self, corpus, queries, qrels):
        self.doc_ids = []
        self.doc_counts = []
        with open(corpus, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    self.doc_ids.append(str(rec["id"]))
                    self.doc_counts.append(Counter(tokenize(str(rec["text"]))))
        self.doc_pos = {d: i for i, d in enumerate(self.doc_ids)}
        self.n_docs = len(self.doc_ids)
        self.doc_len = np.array([sum(c.values()) for c in self.doc_counts],
                                dtype=np.float64)
        self.avg_len = float(self.doc_len.sum()) / self.n_docs
        postings = {}
        for d, counts in enumerate(self.doc_counts):
            for term, tf in counts.items():
                postings.setdefault(term, ([], []))
                postings[term][0].append(d)
                postings[term][1].append(tf)
        self.postings = {
            t: (np.array(ds, dtype=np.int64), np.array(tfs, dtype=np.float64))
            for t, (ds, tfs) in postings.items()
        }
        self.queries = {}
        for path in queries:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.rstrip("\n")
                    if line:
                        qid, text = line.split("\t", 1)
                        self.queries[qid] = tokenize(text)
        self.qrels = {}
        with open(qrels, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if parts:
                    self.qrels.setdefault(parts[0], {})[parts[2]] = int(parts[3])
        # rank of each doc_id in string order, the tie-break of every ranking
        order = sorted(range(self.n_docs), key=lambda d: self.doc_ids[d])
        self.id_rank = np.empty(self.n_docs, dtype=np.int64)
        self.id_rank[order] = np.arange(self.n_docs)
        self._bm25 = {}

    def bm25(self, qid):
        """BM25 of every document for one query (0 where no term matches)."""
        cached = self._bm25.get(qid)
        if cached is not None:
            return cached
        scores = np.zeros(self.n_docs)
        norm = K1 * (1.0 - B + B * self.doc_len / self.avg_len)
        for term in self.queries[qid]:
            if term not in self.postings:
                continue
            docs, tf = self.postings[term]
            df = docs.size
            idf = math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))
            scores[docs] += idf * tf * (K1 + 1.0) / (tf + norm[docs])
        self._bm25[qid] = scores
        return scores

    def ranking(self, qid, k):
        """Top-k matching doc positions: score descending, doc_id ascending."""
        scores = self.bm25(qid)
        matching = np.flatnonzero(scores > 0.0)
        order = np.lexsort((self.id_rank[matching], -scores[matching]))
        return matching[order[:k]]

    def in_pool(self, qid, depth):
        """Doc positions that may sit in the top-depth pool, allowing for
        last-bit differences at the boundary score."""
        scores = self.bm25(qid)
        top = self.ranking(qid, depth)
        if top.size < depth:
            return set(np.flatnonzero(scores > 0.0).tolist())
        floor = scores[top[-1]] - EXACT
        return set(np.flatnonzero(scores >= floor).tolist())


# ---------------------------------------------------------------------------
# Artifacts


def read_lines(path, fields):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != fields:
                raise ValueError(f"{path}:{lineno}: expected {fields} fields")
            rows.append(parts)
    return rows


def read_run(path):
    """qid -> [(doc_id, rank, printed score)] in file order."""
    run = {}
    for qid, _q0, doc_id, rank, score, _tag in read_lines(path, 6):
        run.setdefault(qid, []).append((doc_id, int(rank), float(score)))
    return run


def read_pairs(path):
    """Annotation lines as (qid, d1, d2, s1, s2)."""
    return [(q, d1, d2, float(s1), float(s2))
            for q, d1, d2, s1, s2 in read_lines(path, 5)]


class Checkpoint:
    """A rank-model checkpoint parsed from the container layout: 4-byte magic,
    uint32 version, uint64 header length, JSON header, then float64 arrays."""

    def __init__(self, path):
        data = Path(path).read_bytes()
        if data[:4] != b"MRMD":
            raise ValueError(f"{path}: not a rank-model checkpoint")
        (header_len,) = struct.unpack_from("<Q", data, 8)
        header = json.loads(data[16:16 + header_len])
        arrays, offset = {}, 16 + header_len
        for entry in header["arrays"]:
            dtype = np.dtype("<f8" if entry["dtype"] == "f8" else "<i8")
            count = int(np.prod(entry["shape"])) if entry["shape"] else 1
            arrays[entry["name"]] = np.frombuffer(
                data, dtype=dtype, count=count, offset=offset
            ).reshape(entry["shape"])
            offset += count * dtype.itemsize
        if offset != len(data):
            raise ValueError(f"{path}: {len(data) - offset} trailing bytes")
        meta = header["meta"]
        self.term_pos = {t: i for i, t in enumerate(meta["vocabulary"])}
        self.embedding = arrays["embedding"]
        self.term_weights = arrays["term_weights"]
        self.layers = [
            (arrays[f"layer_weights_{i:02d}"], arrays[f"layer_bias_{i:02d}"], act)
            for i, act in enumerate(meta["activations"])
        ]

    def represent(self, counts):
        """Σ count(t)·ω(t)·ε(t) over in-vocabulary terms."""
        vec = np.zeros(self.embedding.shape[1])
        for term, n in counts.items():
            t = self.term_pos.get(term)
            if t is not None:
                vec += n * self.term_weights[t] * self.embedding[t]
        return vec

    def scores(self, coll, entries):
        """Scores of (qid, doc_id) entries: bag of embeddings, ReLU stack, tanh."""
        q_cache = {}
        rows = []
        for qid, doc_id in entries:
            if qid not in q_cache:
                q_cache[qid] = self.represent(Counter(coll.queries[qid]))
            rows.append(np.concatenate(
                [q_cache[qid], self.represent(coll.doc_counts[coll.doc_pos[doc_id]])]
            ))
        h = np.array(rows)
        for weights, bias, act in self.layers:
            h = h @ weights + bias
            h = np.maximum(h, 0.0) if act == "relu" else np.tanh(h)
        return h[:, 0]


def every(items, limit):
    """At most `limit` items, evenly strided, always the same ones."""
    items = list(items)
    step = max(1, math.ceil(len(items) / limit))
    return items[::step]


# ---------------------------------------------------------------------------
# 1. Retrieval


def check_retrieval(coll, search, qids, k, bm25_run):
    """search(terms, k) -> (doc positions, scores) against brute-force BM25,
    and every bm25.run score against it at print precision."""
    problems = []
    for qid in qids:
        mine = coll.bm25(qid)
        got, got_scores = search(tuple(coll.queries[qid]), k)
        want = coll.ranking(qid, k)
        if len(got) != len(want):
            problems.append(f"{qid}: search returned {len(got)} docs, want {len(want)}")
            continue
        diff = np.abs(np.asarray(got_scores) - mine[np.asarray(got, dtype=np.int64)])
        if diff.size and diff.max() > EXACT:
            problems.append(f"{qid}: search score off by {diff.max():.3g}")
        if not np.allclose(np.sort(got_scores)[::-1], mine[want], rtol=0, atol=EXACT):
            problems.append(f"{qid}: top-{k} scores differ from brute force")
        floor = mine[want[-1]] + EXACT if len(want) else math.inf
        missing = set(np.flatnonzero(mine > floor).tolist()) - set(int(d) for d in got)
        if missing:
            problems.append(f"{qid}: search missed {len(missing)} higher-scoring docs")
    for qid, entries in bm25_run.items():
        mine = coll.bm25(qid)
        for doc_id, _rank, printed in entries:
            if abs(printed - mine[coll.doc_pos[doc_id]]) > PRINTED:
                problems.append(f"bm25.run {qid} {doc_id}: {printed} vs "
                                f"{mine[coll.doc_pos[doc_id]]:.9f}")
    return problems


# ---------------------------------------------------------------------------
# 2. Weak annotations


def check_annotations(coll, pairs, pool_size, pairs_per_query, rounded_ties_dropped):
    problems = []
    per_query = Counter()
    seen = set()
    printed_ties = 0
    pools = {}
    for qid, d1, d2, s1, s2 in pairs:
        if qid not in pools:
            pools[qid] = coll.in_pool(qid, pool_size)
        mine = coll.bm25(qid)
        b1, b2 = mine[coll.doc_pos[d1]], mine[coll.doc_pos[d2]]
        if b1 == b2:
            problems.append(f"{qid} {d1} {d2}: tied BM25 pair emitted")
        if s1 == s2:
            printed_ties += 1
        if abs(s1 - b1) > PRINTED or abs(s2 - b2) > PRINTED:
            problems.append(f"{qid} {d1} {d2}: label ({s1}, {s2}) vs BM25 "
                            f"({b1:.9f}, {b2:.9f})")
        for d in (d1, d2):
            if coll.doc_pos[d] not in pools[qid]:
                problems.append(f"{qid} {d}: outside the top-{pool_size} pool")
        key = (qid, min(d1, d2), max(d1, d2))
        if key in seen:
            problems.append(f"{qid} {d1} {d2}: repeated pair")
        seen.add(key)
        per_query[qid] += 1
    over = [q for q, n in per_query.items() if n > pairs_per_query]
    if over:
        problems.append(f"{len(over)} queries over {pairs_per_query} pairs")
    if printed_ties != rounded_ties_dropped:
        problems.append(f"{printed_ties} pairs tie when printed, report says "
                        f"{rounded_ties_dropped} dropped")
    return problems


# ---------------------------------------------------------------------------
# 3. Model scores


def check_scores(coll, models, entries):
    """entries: (qid, doc_id, printed score); the expected score is the mean
    of the models' forwards (one model for a single ranker)."""
    if not entries:
        return ["no entries to check"]
    keys = [(q, d) for q, d, _ in entries]
    acc = np.zeros(len(keys))
    for model in models:
        acc += model.scores(coll, keys)
    want = acc / len(models)
    got = np.array([s for _, _, s in entries])
    bad = np.flatnonzero(np.abs(got - want) > PRINTED)
    return [f"{keys[i][0]} {keys[i][1]}: {got[i]} vs forward {want[i]:.9f}"
            for i in bad[:10]] + (
        [f"... {bad.size - 10} more"] if bad.size > 10 else [])


def check_noise(coll, teachers, entries, scale):
    """Released noisy labels minus the noise-free teacher mean: the mean of n
    Laplace(scale) draws has mean 0 and variance 2·scale²/n."""
    keys = sorted({(q, d): s for q, d, s in entries}.items())
    if len(keys) < 100:
        return [f"only {len(keys)} noisy labels, too few to test"]
    clean = np.zeros(len(keys))
    for model in teachers:
        clean += model.scores(coll, [k for k, _ in keys])
    noise = np.array([s for _, s in keys]) - clean / len(teachers)
    n, count = len(teachers), noise.size
    var = 2.0 * scale ** 2 / n
    fourth = 12.0 * scale ** 4 / n ** 3 + 3.0 * var ** 2
    problems = []
    if abs(noise.mean()) > 5.0 * math.sqrt(var / count):
        problems.append(f"noise mean {noise.mean():.3g} over {count} labels")
    if abs(noise.var() - var) > 5.0 * math.sqrt((fourth - var ** 2) / count):
        problems.append(f"noise variance {noise.var():.4g}, expected {var:.4g}")
    return problems


# ---------------------------------------------------------------------------
# 4. Run files


def check_run(coll, run, qids, cutoff, pool_depth):
    """Ranks 1..n, printed scores never rise, no repeats, every doc in the
    query's BM25 pool, and the run holds the whole pool up to the cutoff."""
    problems = []
    expected = [q for q in qids if coll.ranking(q, 1).size]
    if list(run) != expected:
        problems.append(f"queries {list(run)[:3]}... != eval queries {expected[:3]}...")
    for qid, entries in run.items():
        pool = coll.in_pool(qid, pool_depth)
        want = min(cutoff, coll.ranking(qid, pool_depth).size)
        if len(entries) != want:
            problems.append(f"{qid}: {len(entries)} lines, want {want}")
        if [r for _, r, _ in entries] != list(range(1, len(entries) + 1)):
            problems.append(f"{qid}: ranks not 1..{len(entries)}")
        scores = [s for _, _, s in entries]
        if any(b > a for a, b in zip(scores, scores[1:])):
            problems.append(f"{qid}: scores increase")
        docs = [d for d, _, _ in entries]
        if len(set(docs)) != len(docs):
            problems.append(f"{qid}: repeated document")
        outside = [d for d in docs if coll.doc_pos[d] not in pool]
        if outside:
            problems.append(f"{qid}: {len(outside)} docs outside the BM25 pool")
    return problems


# ---------------------------------------------------------------------------
# 5. Metrics


def rank_metrics(ranked, grades, k):
    """(AP, P@k, nDCG@k) of one ranked doc-id list; grade >= 1 is relevant."""
    relevant = sum(1 for g in grades.values() if g >= 1)
    hits, ap = 0, 0.0
    for i, doc_id in enumerate(ranked, start=1):
        if grades.get(doc_id, 0) >= 1:
            hits += 1
            ap += hits / i
    ap = ap / relevant if relevant else 0.0
    p = sum(1 for d in ranked[:k] if grades.get(d, 0) >= 1) / k
    dcg = sum(grades.get(d, 0) / math.log2(i + 1)
              for i, d in enumerate(ranked[:k], start=1) if grades.get(d, 0) > 0)
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
    return ap, p, (dcg / idcg if idcg else 0.0)


def mean_metrics(run, qrels, k):
    rows = [rank_metrics([d for d, _, _ in entries], qrels[qid], k)
            for qid, entries in run.items() if qid in qrels]
    n = len(rows)
    return {"map": sum(r[0] for r in rows) / n, "p_at_k": sum(r[1] for r in rows) / n,
            "ndcg_at_k": sum(r[2] for r in rows) / n, "query_count": n}


def check_metrics(run, qrels, reported, k):
    mine = mean_metrics(run, qrels, k)
    return [f"{key}: reported {reported.get(key)} vs recomputed {value}"
            for key, value in mine.items()
            if reported.get(key) is None or abs(reported[key] - value) > EXACT]


# ---------------------------------------------------------------------------
# 6. Determinism


def artifact_digests(run_dir):
    """sha256 of every checkpoint, run file and metrics.json of a run."""
    run_dir = Path(run_dir)
    files = sorted(p for p in (run_dir / "checkpoints").rglob("*") if p.is_file())
    files += sorted((run_dir / "runs").glob("*.run"))
    files.append(run_dir / "metrics.json")
    return {str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files}


def check_determinism(run_dirs):
    if len(run_dirs) < 2:
        return [f"{len(run_dirs)} runs, need two to compare"]
    first = artifact_digests(run_dirs[0])
    problems = []
    for other in run_dirs[1:]:
        digests = artifact_digests(other)
        changed = sorted(k for k in first.keys() | digests.keys()
                         if first.get(k) != digests.get(k))
        if changed:
            problems.append(f"{Path(other).name} differs in {', '.join(changed)}")
    return problems
