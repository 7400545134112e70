"""Noisy teacher ensembles: partition the data, train independent teachers,
perturb each teacher's score with Laplace noise, aggregate by mean, and
train a student on the aggregated labels only.

The student never sees the partitioned training data; its entire input is
the noisy aggregate score stream. Aggregation sums teacher contributions
left to right so the noise-free path is bit-reproducible.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import seeding
from .corpus import write_annotations
from .distill import (
    DEFAULT_PAIRS_PER_QUERY,
    DEFAULT_POOL_SIZE,
    mimic_train,
)
from .ranker import (
    check_index_vocabulary,
    init_params,
    load_model,
    save_model,
    score_pool,
    train,
)

NOISE_TAG = 7  # extends (seed, query position) into the per-query noise stream

ENSEMBLE_MANIFEST = "manifest.json"


@dataclass(frozen=True)
class PrivacyConfig:
    n_partitions: int = 3
    noise_scale: float = 0.05  # Laplace scale b; 0 disables noise
    seed: int = 0

    def __post_init__(self):
        if self.n_partitions < 1:
            raise ValueError("n_partitions must be at least 1")
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError(f"noise_scale must be finite and non-negative, "
                             f"got {self.noise_scale!r}")


@dataclass
class TeacherEnsemble:
    teachers: list
    config: PrivacyConfig

    def __post_init__(self):
        if len(self.teachers) != self.config.n_partitions:
            raise ValueError(
                f"{len(self.teachers)} teachers != {self.config.n_partitions} partitions"
            )
        first = self.teachers[0].vocabulary
        for i, t in enumerate(self.teachers[1:], start=1):
            if t.vocabulary != first:
                raise ValueError(f"teacher {i} vocabulary differs from teacher 0")


def partition_data(instances, n, seed):
    """Seeded shuffle then round-robin: disjoint shards, sizes differ ≤ 1."""
    if n < 1:
        raise ValueError("need at least one partition")
    if n > len(instances):
        raise ValueError(
            f"{n} partitions over {len(instances)} instances would leave "
            "a teacher with no data"
        )
    order = seeding.rng(seed).permutation(len(instances))
    shards = [[] for _ in range(n)]
    for j, idx in enumerate(order):
        shards[j % n].append(instances[idx])
    return shards


def train_teachers(shards, model_config, index, epochs, base_seed,
                   embedding_file=None, privacy_config=None):
    """One architecturally identical teacher per shard, seed base_seed + i."""
    if privacy_config is None:
        privacy_config = PrivacyConfig(n_partitions=len(shards))
    if len(shards) != privacy_config.n_partitions:
        raise ValueError("shard count != configured partitions")
    teachers = []
    for i, shard in enumerate(shards):
        if not shard:
            raise ValueError(f"partition {i} is empty")
        params = init_params(
            model_config, index.vocabulary, index,
            embedding_file=embedding_file, seed=base_seed + i,
        )
        train(params, model_config, shard, epochs, seed=base_seed + i)
        teachers.append(params)
    return TeacherEnsemble(teachers=teachers, config=privacy_config)


def train_ensemble(instances, model_config, index, epochs, privacy_config,
                   partition_seed, base_seed, shard_dir, ensemble_dir,
                   embedding_file=None):
    """Shard the pairs, train one teacher per shard, and save the ensemble.

    Each shard is written to shard_dir as shard_NN.tsv and hashed; teacher i
    is seeded base_seed + i. Returns (ensemble, shard sizes, shard hashes),
    where the ensemble is reloaded from ensemble_dir so that callers consume
    the persisted artifact, not the in-memory one.
    """
    n = privacy_config.n_partitions
    shards = partition_data(instances, n, partition_seed)
    shard_dir = Path(shard_dir)
    shard_dir.mkdir(exist_ok=True)
    hashes = []
    for i, shard in enumerate(shards):
        shard_path = shard_dir / f"shard_{i:02d}.tsv"
        write_annotations(shard_path, shard)
        hashes.append(file_sha256(shard_path))
    ensemble = train_teachers(
        shards, model_config, index, epochs, base_seed=base_seed,
        embedding_file=embedding_file, privacy_config=privacy_config,
    )
    save_ensemble(ensemble_dir, ensemble,
                  teacher_seeds=[base_seed + i for i in range(n)],
                  shard_hashes=hashes)
    loaded, _ = load_ensemble(ensemble_dir)
    return loaded, [len(s) for s in shards], hashes


# ---------------------------------------------------------------------------
# Laplace mechanism


def laplace_sample(scale, u):
    """Inverse-CDF Laplace draw: −scale·sgn(u)·ln(1−2|u|), u ∈ (−0.5, 0.5].

    scale 0 always yields 0. The right endpoint u=0.5 maps to +infinity
    (measure-zero in exact arithmetic; draw_uniform never produces it).
    """
    if scale < 0:
        raise ValueError("scale must be non-negative")
    if not -0.5 < u <= 0.5:
        raise ValueError(f"u={u} outside (-0.5, 0.5]")
    if scale == 0.0 or u == 0.0:
        return 0.0
    if u == 0.5:
        return math.inf
    sgn = 1.0 if u > 0 else -1.0
    return -scale * sgn * math.log(1.0 - 2.0 * abs(u))


def draw_uniform(rng):
    """u uniform on the open interval (−0.5, 0.5); the endpoint is redrawn."""
    u = 0.5 - rng.random()
    while u == 0.5:
        u = 0.5 - rng.random()
    return u


def noisy_aggregate(ensemble, query_terms, doc_rows, rng=None):
    """(1/n)·Σ_i (score_i + Laplace(scale)) for every document of a pool.

    doc_rows: the pool's (term indices, counts) rows; each teacher scores
    the pool in one forward. Noise is drawn per (document, teacher),
    document-major and teacher-minor. Teacher contributions are summed
    left to right from 0.0, so with noise_scale 0 the result equals
    teacher_mean bitwise. Returns an array of pool scores.
    """
    scale = ensemble.config.noise_scale
    if scale > 0.0 and rng is None:
        raise ValueError("noise_scale > 0 requires an rng")
    n_teachers = len(ensemble.teachers)
    if scale > 0.0:
        noise = np.array([laplace_sample(scale, draw_uniform(rng))
                          for _ in range(len(doc_rows) * n_teachers)])
        noise = noise.reshape(len(doc_rows), n_teachers)
    acc = np.zeros(len(doc_rows))
    for i, teacher in enumerate(ensemble.teachers):
        s = score_pool(teacher, query_terms, doc_rows)
        if scale > 0.0:
            s = s + noise[:, i]
        acc = acc + s
    return acc / n_teachers


def teacher_mean(ensemble, query_terms, doc_rows):
    """Noise-free mean of teacher pool scores, same summation order."""
    acc = np.zeros(len(doc_rows))
    for teacher in ensemble.teachers:
        acc = acc + score_pool(teacher, query_terms, doc_rows)
    return acc / len(ensemble.teachers)


def pairwise_agreement(score_a, score_b, pools):
    """Fraction of document pairs that two pool scorers order alike.

    pools: (query terms, doc rows, pairs) triples, where pairs holds (i, j)
    positions into the pool; each scorer(query terms, doc rows) -> scores
    runs once per pool. A tie from either scorer counts as disagreement
    unless both tie. None when there are no pairs.
    """
    agree = total = 0
    for query_terms, doc_rows, pairs in pools:
        a, b = score_a(query_terms, doc_rows), score_b(query_terms, doc_rows)
        for i, j in pairs:
            agree += _pref(a[i], a[j]) == _pref(b[i], b[j])
        total += len(pairs)
    return agree / total if total else None


def _pref(s1, s2):
    if s1 > s2:
        return 1
    if s1 < s2:
        return -1
    return 0


# ---------------------------------------------------------------------------
# Private distillation


def ensemble_labels(ensemble, index, tag):
    """Labeler that scores a whole pool with the noisy aggregate.

    Returns label_fn(query, pool doc indices, query position) -> score
    array, the protocol of annotate_pools and pipeline.model_run. Each call
    draws its noise from its own stream, seeding.rng(privacy seed, query
    position, tag), walked over the pool in order, so the labels depend
    neither on the order in which queries are labeled nor on how they are
    split over workers. The teachers must share the index's vocabulary; a
    mismatch raises ValueError here.
    """
    check_index_vocabulary(ensemble.teachers[0], index)

    def labels(query, pool, qpos):
        rng = seeding.rng(ensemble.config.seed, qpos, tag)
        return noisy_aggregate(ensemble, query.terms,
                               [index.doc_rows(d) for d in pool], rng)

    return labels


def pate_distill(ensemble, student_config, unlabeled, index, epochs, seed,
                 pool_size=DEFAULT_POOL_SIZE,
                 pairs_per_query=DEFAULT_PAIRS_PER_QUERY,
                 heldout_fraction=0.1, embedding_file=None):
    """distill() with the noisy ensemble as the labeler.

    Pairs whose noisy scores tie are discarded exactly like any other tie.
    """
    return mimic_train(
        ensemble_labels(ensemble, index, NOISE_TAG), student_config, unlabeled,
        index, epochs, seed, pool_size=pool_size,
        pairs_per_query=pairs_per_query, heldout_fraction=heldout_fraction,
        embedding_file=embedding_file,
    )


# ---------------------------------------------------------------------------
# Ensemble checkpoints


def save_ensemble(directory, ensemble, teacher_seeds=None, shard_hashes=None):
    """Directory of per-teacher checkpoints plus a manifest.

    The manifest records n, noise_scale, seeds, and optional shard content
    hashes; it is written with sorted keys and no timestamps so rewrites
    are byte-identical.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for i, teacher in enumerate(ensemble.teachers):
        name = f"teacher_{i:02d}.ckpt"
        save_model(directory / name, teacher)
        files.append(name)
    manifest = {
        "kind": "teacher-ensemble",
        "n_partitions": ensemble.config.n_partitions,
        "noise_scale": ensemble.config.noise_scale,
        "seed": ensemble.config.seed,
        "teacher_seeds": teacher_seeds,
        "teacher_files": files,
        "shard_hashes": shard_hashes,
    }
    with open(directory / ENSEMBLE_MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return directory / ENSEMBLE_MANIFEST


def read_ensemble_manifest(directory):
    """(PrivacyConfig, manifest dict) of a saved ensemble; no teacher is loaded."""
    with open(Path(directory) / ENSEMBLE_MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    config = PrivacyConfig(
        n_partitions=manifest["n_partitions"],
        noise_scale=manifest["noise_scale"],
        seed=manifest["seed"],
    )
    return config, manifest


def load_ensemble(directory):
    config, manifest = read_ensemble_manifest(directory)
    teachers = [load_model(Path(directory) / name) for name in manifest["teacher_files"]]
    return TeacherEnsemble(teachers=teachers, config=config), manifest


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
