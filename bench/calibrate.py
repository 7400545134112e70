"""Fixed reference work that measures how fast the machine is right now.

On a shared machine the same code runs up to 1.6 times as long in one
minute as in the next. The worker runs this work before every pipeline run
and after the last one, and the metrics scale each pipeline run's timings
by how long the work on either side of it took, against REFERENCE_S (see
metrics.machine_factors). The work is the benchmark's own, so no change to
the program can move it. It mixes the two kinds of work the pipeline does:
dict and list handling in pure Python, as in BM25 scoring, and dense
float64 products, as in the models' forwards.
"""

import math
import random

import numpy as np

REPEATS = 6  # about 0.12 s of each kind on the machine in README.md
# seconds that run() takes at the reference speed: about its median over
# the baseline runs on the machine in README.md (0.252 s over 242 calls)
REFERENCE_S = 0.25


def _python_data():
    rng = random.Random(20170721)
    docs = [[f"t{int(rng.paretovariate(1.2)) % 3000}" for _ in range(40)]
            for _ in range(400)]
    queries = [[f"t{int(rng.paretovariate(1.2)) % 3000}" for _ in range(3)]
               for _ in range(40)]
    return docs, queries


def _numpy_data():
    rng = np.random.default_rng(20170721)
    x = rng.standard_normal((30, 500))
    layers = [rng.standard_normal((500, 512)) / 25.0,
              rng.standard_normal((512, 512)) / 25.0,
              rng.standard_normal((512, 512)) / 25.0]
    return x, layers


_DOCS, _QUERIES = _python_data()
_X, _LAYERS = _numpy_data()


def python_work():
    """Index the fixed documents and rank all of them for every query by BM25."""
    total = 0.0
    for _ in range(REPEATS):
        postings = {}
        for d, doc in enumerate(_DOCS):
            counts = {}
            for term in doc:
                counts[term] = counts.get(term, 0) + 1
            for term, tf in counts.items():
                postings.setdefault(term, []).append((d, tf))
        n = len(_DOCS)
        for query in _QUERIES:
            scores = {}
            for term in query:
                plist = postings.get(term, ())
                idf = math.log(1.0 + (n - len(plist) + 0.5) / (len(plist) + 0.5))
                for d, tf in plist:
                    scores[d] = scores.get(d, 0.0) + idf * tf * 2.2 / (tf + 1.2)
            top = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
            total += sum(s for _, s in top)
    return total


def numpy_work():
    """A ReLU stack of the teacher's width over a batch of 30, forwards only."""
    total = 0.0
    for _ in range(REPEATS * 16):
        h = _X
        for w in _LAYERS:
            h = np.maximum(h @ w, 0.0)
        total += float(np.tanh(h.sum(axis=1)).sum())
    return total


def run():
    python_work()
    numpy_work()
