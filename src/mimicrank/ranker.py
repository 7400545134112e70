"""Weighted bag-of-embeddings ranker trained with a pairwise hinge loss.

A query or document is represented as the weighted sum of its term
embeddings (per-term scalar weights initialized from IDF). The scorer is a
dense ReLU stack over [query repr ‖ doc repr] ending in a single tanh unit,
trained on score-labeled document pairs and applied pointwise at inference,
where a whole candidate pool goes through the stack in one forward.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import nn, seeding
from .serialize import read_container, write_container
from .corpus import Vocabulary, term_index_counts

MODEL_MAGIC = b"MRMD"
MODEL_VERSION = 1


@dataclass(frozen=True)
class RankModelConfig:
    embedding_dim: int = 500
    hidden_layers: int = 3
    hidden_size: int = 512
    dropout_keep: float = 0.8
    learning_rate: float = 1e-3
    batch_size: int = 512
    train_embeddings: bool = True
    train_term_weights: bool = True

    def __post_init__(self):
        for name in ("embedding_dim", "hidden_layers", "hidden_size", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"got {self.learning_rate!r}")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ValueError("dropout_keep must be in (0, 1]")


TEACHER_CONFIG = RankModelConfig(
    embedding_dim=500, hidden_layers=3, hidden_size=512, dropout_keep=0.8,
    learning_rate=1e-3, batch_size=512,
)
STUDENT_CONFIG = RankModelConfig(
    embedding_dim=300, hidden_layers=3, hidden_size=128, dropout_keep=0.9,
    learning_rate=1e-3, batch_size=512,
)


@dataclass
class RankModelParams:
    config: RankModelConfig
    vocabulary: Vocabulary
    embedding: np.ndarray  # (|V|, m)
    term_weights: np.ndarray  # (|V|,)
    layers: list

    def __post_init__(self):
        m = self.config.embedding_dim
        if self.embedding.shape != (len(self.vocabulary), m):
            raise ValueError(
                f"embedding shape {self.embedding.shape} != "
                f"({len(self.vocabulary)}, {m})"
            )
        if self.term_weights.shape != (len(self.vocabulary),):
            raise ValueError("term_weights must have one entry per vocabulary term")
        if self.layers[0].in_dim != 2 * m:
            raise ValueError(
                f"first dense layer expects {self.layers[0].in_dim} inputs, "
                f"need {2 * m} (query repr ‖ doc repr)"
            )
        if self.layers[-1].out_dim != 1 or self.layers[-1].activation != "tanh":
            raise ValueError("output layer must be a single tanh unit")

    def copy(self):
        return RankModelParams(
            config=self.config,
            vocabulary=self.vocabulary,
            embedding=self.embedding.copy(),
            term_weights=self.term_weights.copy(),
            layers=[
                nn.DenseLayer(l.weights.copy(), l.bias.copy(), l.activation)
                for l in self.layers
            ],
        )


class TrainingDiverged(RuntimeError):
    """Raised when a training step produces a non-finite loss.

    Carries the parameters as of the last completed epoch so callers can
    keep the most recent good checkpoint.
    """

    def __init__(self, message, last_good, epoch):
        super().__init__(message)
        self.last_good = last_good
        self.epoch = epoch


def represent_rows(params, rows):
    """Bag-of-embeddings matrix, one row per (term indices, counts) pair.

    Each row is Σ count(t)·ω(t)·ε(t) over its terms, summed in the order
    given (ascending unique indices in every caller); no terms give zeros.
    Rows are InvertedIndex.doc_rows views or term_index_counts output; their
    int64 and float64 counts give the same floats.
    """
    out = np.zeros((len(rows), params.config.embedding_dim))
    for i, (idx, counts) in enumerate(rows):
        if idx.size:
            out[i] = (counts * params.term_weights[idx]) @ params.embedding[idx]
    return out


def represent(params, terms):
    """Weighted bag of embeddings of a term multiset; empty/OOV → zeros."""
    pair = term_index_counts(params.vocabulary, terms)
    return represent_rows(params, [pair])[0]


def score_batch(params, query_reps, doc_reps):
    """Scores in (−1, 1) of [query ‖ doc] rows with one forward, no dropout.

    query_reps broadcasts against doc_reps (n, m), so one query
    representation serves a whole pool. Returns a 1-D array of n scores.
    """
    x = np.concatenate([np.broadcast_to(query_reps, doc_reps.shape), doc_reps], axis=1)
    out, _ = nn.forward(params.layers, x)
    return out[:, 0]


def score_pool(params, query_terms, doc_rows):
    """Scores of one query against a pool of (term indices, counts) rows.

    The rows must index params.vocabulary, as InvertedIndex.doc_rows does
    when the model was built on that index (see check_index_vocabulary).
    """
    return score_batch(params, represent(params, query_terms),
                       represent_rows(params, doc_rows))


def score(params, query_terms, doc_terms):
    """Pointwise score in (−1, 1) of one (query, document) pair: a one-row pool."""
    rows = [term_index_counts(params.vocabulary, doc_terms)]
    return float(score_pool(params, query_terms, rows)[0])


def check_index_vocabulary(params, index):
    """Raise ValueError unless the model indexes terms as the index does."""
    if params.vocabulary != index.vocabulary:
        raise ValueError(
            f"model vocabulary ({len(params.vocabulary)} terms) differs from "
            f"the index vocabulary ({len(index.vocabulary)} terms); the model "
            "was built on another index"
        )


def hinge_loss(instances, pair_scores):
    """(1/|b|) Σ max{0, 1 − sign(s1−s2)·(S1−S2)} over the batch.

    pair_scores: (S1, S2) arrays aligned with instances. Label ties are
    rejected: sign(0) would turn the term into a gradient-free constant.
    """
    s1_labels = np.array([inst.s1 for inst in instances])
    s2_labels = np.array([inst.s2 for inst in instances])
    if (s1_labels == s2_labels).any():
        raise ValueError("tied label scores in batch")
    sign = np.where(s1_labels > s2_labels, 1.0, -1.0)
    big_s1, big_s2 = (np.asarray(a, dtype=np.float64) for a in pair_scores)
    terms = np.maximum(0.0, 1.0 - sign * (big_s1 - big_s2))
    return float(terms.mean())


# Training builds its count matrices this many rows at a time: few enough
# that a block stays small over a large vocabulary, enough that its matrix
# is dense enough for BLAS over a small one (64 measured best of 16 to 128).
_BLOCK_ROWS = 64


def _count_blocks(rows):
    """(first row, terms u, counts C) for each block of _BLOCK_ROWS rows.

    C is dense over the block's distinct terms u: C[i, j] is the count of
    u[j] in row first + i. A block has at most _BLOCK_ROWS times its
    nonzeros entries, so the work and memory of C @ X and Cᵀ @ Y grow with
    the rows' nonzeros, whatever the size of the vocabulary.
    """
    for first in range(0, len(rows), _BLOCK_ROWS):
        part = rows[first:first + _BLOCK_ROWS]
        u, cols = np.unique(np.concatenate([idx for idx, _ in part]), return_inverse=True)
        counts = np.zeros((len(part), u.size))
        counts[np.repeat(np.arange(len(part)), [idx.size for idx, _ in part]), cols] = (
            np.concatenate([c for _, c in part]))
        yield first, u, counts


def compute_loss_and_grads(params, batch, train=False, rng=None):
    """Shared-parameter forward on (q,d1) and (q,d2), hinge loss, gradients.

    The instances' rows must index params.vocabulary. The batch's query,
    doc1 and doc2 rows are split into count-matrix blocks (_count_blocks):
    a block's representations are (C·ω[u]) @ ε[u], and its representation
    gradients G come back as A = Cᵀ @ G, adding ω[u]·A to d_embedding[u]
    and the row sums of ε[u]∘A to d_term_weights[u]. Returns (loss, grads)
    where grads is a dict with d_embedding, d_term_weights, and d_layers
    (a GradientStore-shaped pair of lists). Dropout runs only when
    train=True.
    """
    n = len(batch)
    if n == 0:
        raise ValueError("empty batch")
    m = params.config.embedding_dim
    rows = ([inst.query_rows for inst in batch] + [inst.doc1_rows for inst in batch]
            + [inst.doc2_rows for inst in batch])
    blocks = list(_count_blocks(rows))
    reps = np.empty((3 * n, m))
    for first, u, counts in blocks:
        reps[first:first + len(counts)] = (
            (counts * params.term_weights[u]) @ params.embedding[u])
    x1 = np.concatenate([reps[:n], reps[n:2 * n]], axis=1)
    x2 = np.concatenate([reps[:n], reps[2 * n:]], axis=1)
    del reps  # not kept alive next to the forward caches

    keep = params.config.dropout_keep if train else 1.0
    out1, cache1 = nn.forward(params.layers, x1, dropout_keep=keep, train=train, rng=rng)
    out2, cache2 = nn.forward(params.layers, x2, dropout_keep=keep, train=train, rng=rng)
    big_s1, big_s2 = out1[:, 0], out2[:, 0]

    sign = np.array([1.0 if inst.s1 > inst.s2 else -1.0 for inst in batch])
    margins = 1.0 - sign * (big_s1 - big_s2)
    active = margins > 0.0  # subgradient 0 exactly at the kink
    loss = float(np.maximum(0.0, margins).mean())

    d_s1 = np.where(active, -sign, 0.0) / n
    d_s2 = np.where(active, sign, 0.0) / n
    store1 = nn.backward(cache1, d_s1[:, None])
    store2 = nn.backward(cache2, d_s2[:, None])

    d_layers_w = [a + b for a, b in zip(store1.d_weights, store2.d_weights)]
    d_layers_b = [a + b for a, b in zip(store1.d_biases, store2.d_biases)]

    del cache1, cache2  # activations are freed before d_reps is built
    dx1, dx2 = store1.d_input, store2.d_input
    d_reps = np.concatenate([dx1[:, :m] + dx2[:, :m], dx1[:, m:], dx2[:, m:]])
    d_embedding = np.zeros_like(params.embedding)
    d_term_weights = np.zeros_like(params.term_weights)
    for first, u, counts in blocks:
        acc = counts.T @ d_reps[first:first + len(counts)]
        d_embedding[u] += acc
        d_term_weights[u] += np.einsum("ij,ij->i", params.embedding[u], acc)
    d_embedding *= params.term_weights[:, None]  # rows of unused terms stay 0

    grads = {
        "d_embedding": d_embedding,
        "d_term_weights": d_term_weights,
        "d_layer_weights": d_layers_w,
        "d_layer_biases": d_layers_b,
    }
    return loss, grads


def _trainable(params):
    """Flat (names, arrays) of what the optimizer updates, fixed order."""
    names, arrays = [], []
    if params.config.train_embeddings:
        names.append("embedding")
        arrays.append(params.embedding)
    if params.config.train_term_weights:
        names.append("term_weights")
        arrays.append(params.term_weights)
    for i, layer in enumerate(params.layers):
        names.append(f"layer_{i}_weights")
        arrays.append(layer.weights)
        names.append(f"layer_{i}_bias")
        arrays.append(layer.bias)
    return names, arrays


def _grad_list(params, grads):
    out = []
    if params.config.train_embeddings:
        out.append(grads["d_embedding"])
    if params.config.train_term_weights:
        out.append(grads["d_term_weights"])
    for dw, db in zip(grads["d_layer_weights"], grads["d_layer_biases"]):
        out.append(dw)
        out.append(db)
    return out


@dataclass
class TrainResult:
    params: RankModelParams
    epoch_losses: list


def train(params, config, instances, epochs, seed):
    """Seeded epoch shuffles, fixed-size batches (last partial kept), Adam.

    Mutates params in place and also returns them. A non-finite loss aborts
    with TrainingDiverged carrying the last epoch-boundary snapshot.
    """
    if not instances:
        raise ValueError("no training instances")
    _, arrays = _trainable(params)
    state = nn.adam_state(arrays, learning_rate=config.learning_rate)
    epoch_losses = []
    n = len(instances)
    last_good = params.copy()
    for epoch in range(epochs):
        order = seeding.rng(seed, epoch, 0).permutation(n)
        dropout_rng = seeding.rng(seed, epoch, 1)
        total = 0.0
        for start in range(0, n, config.batch_size):
            batch = [instances[i] for i in order[start:start + config.batch_size]]
            loss, grads = compute_loss_and_grads(params, batch, train=True,
                                                 rng=dropout_rng)
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}", last_good, epoch
                )
            total += loss * len(batch)
            nn.optimizer_step(arrays, _grad_list(params, grads), state)
        epoch_losses.append(total / n)
        last_good = params.copy()
    return TrainResult(params, epoch_losses)


def rank_by_scores(scored, cutoff):
    """Order (doc_id, score) pairs: score desc, doc_id asc; truncate.

    cutoff None keeps every pair; a cutoff below 1 raises ValueError.
    """
    if cutoff is not None and cutoff < 1:
        raise ValueError(f"cutoff must be at least 1, got {cutoff}")
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))[:cutoff]


# ---------------------------------------------------------------------------
# Initialization


def load_embedding_file(path):
    """Text embeddings: optional `<count> <dim>` header, then `token v1..vm`.

    Returns (dict token -> vector, dim).
    """
    vectors = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            parts = [p for p in parts if p]
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue  # header line
                except ValueError:
                    pass
            token, values = parts[0], parts[1:]
            try:
                vec = np.array([float(v) for v in values])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed vector") from exc
            if not np.isfinite(vec).all():
                raise ValueError(f"{path}:{lineno}: non-finite vector entry")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ValueError(
                    f"{path}:{lineno}: dimension {vec.size} != {dim}"
                )
            vectors[token] = vec
    return vectors, dim


def init_params(config, vocabulary, index, embedding_file=None, seed=0):
    """Random ±0.1 embeddings overridden by file vectors; ω from IDF.

    The embedding file, when given, must match config.embedding_dim exactly;
    tokens absent from the file keep their random rows.
    """
    emb_rng = seeding.rng(seed, 0)
    dense_rng = seeding.rng(seed, 1)
    n_vocab = len(vocabulary)
    embedding = emb_rng.uniform(-0.1, 0.1, size=(n_vocab, config.embedding_dim))
    if embedding_file is not None:
        vectors, dim = load_embedding_file(embedding_file)
        if dim is not None and dim != config.embedding_dim:
            raise ValueError(
                f"embedding file dimension {dim} != configured "
                f"{config.embedding_dim}"
            )
        for t, term in enumerate(vocabulary.terms):
            vec = vectors.get(term)
            if vec is not None:
                embedding[t] = vec
    term_weights = np.array([index.idf(term) for term in vocabulary.terms])
    dims = [2 * config.embedding_dim] + [config.hidden_size] * config.hidden_layers + [1]
    acts = ["relu"] * config.hidden_layers + ["tanh"]
    layers = nn.init_layers(dims, acts, dense_rng)
    return RankModelParams(
        config=config,
        vocabulary=vocabulary,
        embedding=embedding,
        term_weights=term_weights,
        layers=layers,
    )


# ---------------------------------------------------------------------------
# Checkpoints


def save_model(path, params):
    meta = {
        "kind": "rank-model",
        "config": dataclasses.asdict(params.config),
        "vocabulary": list(params.vocabulary.terms),
        "activations": [layer.activation for layer in params.layers],
    }
    arrays = [("embedding", params.embedding), ("term_weights", params.term_weights)]
    arrays.extend(nn.layers_to_arrays(params.layers, prefix="layer_"))
    write_container(path, MODEL_MAGIC, MODEL_VERSION, meta, arrays)


def load_model(path):
    _, meta, arrays = read_container(path, MODEL_MAGIC, MODEL_VERSION)
    for name, array in arrays.items():
        if not np.isfinite(array).all():
            raise ValueError(f"{path}: non-finite {name}")
    config = RankModelConfig(**meta["config"])
    layers = nn.layers_from_arrays(meta["activations"], arrays, prefix="layer_")
    return RankModelParams(
        config=config,
        vocabulary=Vocabulary(meta["vocabulary"]),
        embedding=arrays["embedding"],
        term_weights=arrays["term_weights"],
        layers=layers,
    )
