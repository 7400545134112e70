"""Noisy teacher ensembles: partition the data, train independent teachers,
perturb each teacher's score with Laplace noise, and aggregate by mean.

ensemble_labels is the labeler with which distill.mimic_train trains a
student on the aggregated labels only: the student never sees the
partitioned training data. ensemble_run_scorers scores the ensemble's run
files. Every Laplace draw comes from a noise_stream(privacy, pool
position, role tag); teacher contributions are summed left to right, so
the noise-free path is bit-reproducible. An ensemble's size is its number
of teachers, trained one at a time straight into an ensemble directory
(train_teachers through save_ensemble) and read back by load_ensemble.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import seeding
from .ranker import init_params, load_model, pool_scorer, save_model, train
from .serialize import write_json

# role tags: they extend (privacy seed, pool position) into a noise stream
NOISE_TAG = 7  # the labels a student learns from
EVAL_NOISE_TAG = 8  # the aggregate_noisy run, distinct from the labels

ENSEMBLE_MANIFEST = "manifest.json"


@dataclass(frozen=True)
class PrivacyConfig:
    noise_scale: float = 0.05  # Laplace scale b; 0 disables noise
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError(f"noise_scale must be finite and non-negative, "
                             f"got {self.noise_scale!r}")


@dataclass
class TeacherEnsemble:
    teachers: list
    config: PrivacyConfig

    def __post_init__(self):
        first = self.teachers[0].vocabulary
        for i, t in enumerate(self.teachers[1:], start=1):
            if t.vocabulary != first:
                raise ValueError(f"teacher {i} vocabulary differs from teacher 0")


def partition_data(pairs, n, seed):
    """Seeded shuffle then round-robin: n disjoint PairSets, sizes differ ≤ 1."""
    if n < 1:
        raise ValueError("need at least one partition")
    if n > len(pairs):
        raise ValueError(
            f"{n} partitions over {len(pairs)} pairs would leave "
            "a teacher with no data"
        )
    order = seeding.rng(seed).permutation(len(pairs))
    return [pairs.take(order[i::n]) for i in range(n)]


def train_teachers(shards, model_config, index, epochs, base_seed, privacy_config,
                   directory, embedding_file=None, shard_hashes=None):
    """One architecturally identical teacher per shard, seed base_seed + i,
    trained into the ensemble directory `directory` one at a time.

    Teacher i is trained, written by save_ensemble and released before
    teacher i + 1 is made, so one teacher and its Adam state are resident
    however many shards there are; the manifest is written last, and a
    failure leaves none. Returns the directory, for load_ensemble.
    """
    for i, shard in enumerate(shards):
        if not shard:
            raise ValueError(f"partition {i} is empty")
    seeds = [base_seed + i for i in range(len(shards))]
    teachers = (
        train(init_params(model_config, index.vocabulary, index,
                          embedding_file=embedding_file, seed=seed),
              model_config, shard, epochs, seed=seed).params
        for shard, seed in zip(shards, seeds))
    return save_ensemble(directory, teachers, privacy_config, teacher_seeds=seeds,
                         shard_hashes=shard_hashes)


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


def laplace_noise(scale, rng, n):
    """n draws of laplace_sample(scale, draw_uniform(rng)), as one array.

    The uniforms come from one rng.random(n) call, which yields the
    doubles of n scalar rng.random() calls; a 0.0, which draw_uniform
    redraws, is dropped and the shortfall drawn after the rest. The
    magnitudes go through math.log and the same float operations as
    laplace_sample, so every draw and the rng's final state match the
    scalar loop bit for bit. scale must be positive.
    """
    r = rng.random(n)
    while (r == 0.0).any():
        r = r[r != 0.0]
        r = np.concatenate([r, rng.random(n - r.size)])
    u = 0.5 - r
    logs = [math.log(x) for x in (1.0 - 2.0 * np.abs(u)).tolist()]
    return np.where(u > 0.0, -scale, scale) * logs


def teacher_scorers(ensemble, index):
    """One ranker.pool_scorer per teacher of the ensemble, in teacher order."""
    return [pool_scorer(teacher, index) for teacher in ensemble.teachers]


def teacher_scores(scorers, queries_terms, pools):
    """(documents × teachers) arrays of pools' teacher scores, one per pool.

    scorers: one ranker.pool_scorer per teacher, in teacher order; pools:
    index positions, pools[i] scored against queries_terms[i]. Column i of
    a pool's array is that pool's scores from scorers[i] exactly: each
    teacher scores all the pools in one call.
    """
    columns = [scorer(queries_terms, pools) for scorer in scorers]
    return [np.column_stack(pool_columns) for pool_columns in zip(*columns)]


def aggregate_scores(scores, scale, rng=None):
    """(1/n)·Σ_i (scores[:, i] + Laplace(scale)) for every document.

    scores: a teacher_scores array. Noise is drawn per (document, teacher),
    document-major and teacher-minor. Teacher contributions are summed
    left to right from 0.0, so at scale 0 the result equals teacher_mean
    bitwise. Returns an array of pool scores.
    """
    if scale > 0.0 and rng is None:
        raise ValueError("noise_scale > 0 requires an rng")
    n_docs, n_teachers = scores.shape
    if scale > 0.0:
        scores = scores + laplace_noise(scale, rng, n_docs * n_teachers).reshape(
            n_docs, n_teachers)
    acc = np.zeros(n_docs)
    for i in range(n_teachers):
        acc = acc + scores[:, i]
    return acc / n_teachers


def noisy_aggregate(scorers, query_terms, pool, scale, rng=None):
    """aggregate_scores of a pool's teacher_scores at Laplace scale `scale`."""
    return aggregate_scores(teacher_scores(scorers, [query_terms], [pool])[0], scale, rng)


def teacher_mean(scorers, queries_terms, pools):
    """Noise-free means of teacher pool scores, one array per pool.

    Each scorer scores all the pools in one call, as in teacher_scores;
    a pool's teacher scores are summed left to right from 0.0 like
    aggregate_scores', but apart from teacher_scores and aggregate_scores.
    """
    columns = [scorer(queries_terms, pools) for scorer in scorers]
    means = []
    for pool_columns in zip(*columns):
        acc = np.zeros(len(pool_columns[0]))
        for column in pool_columns:
            acc = acc + column
        means.append(acc / len(scorers))
    return means


def pairwise_agreement(scores_a, scores_b, pairs):
    """Fraction of document pairs that two sets of pool scores order alike.

    scores_a and scores_b hold one score array per pool, and pairs[k]
    holds (i, j) positions into pool k. A tie on either side counts as
    disagreement unless both tie. None when there are no pairs.
    """
    agree = total = 0
    for a, b, pool_pairs in zip(scores_a, scores_b, pairs, strict=True):
        i, j = np.array(pool_pairs, dtype=np.intp).reshape(-1, 2).T
        # a difference of finite floats is 0 exactly when they are equal
        agree += int((np.sign(a[i] - a[j]) == np.sign(b[i] - b[j])).sum())
        total += i.size
    return agree / total if total else None


def noise_stream(privacy, qpos, tag):
    """The generator of one pool's Laplace noise, keyed by the privacy seed,
    the pool's query position and a role tag (NOISE_TAG or EVAL_NOISE_TAG).
    Every noise draw comes from a stream made here, and only at a noise
    scale above 0, so the noise does not depend on the order of pools."""
    return seeding.rng(privacy.seed, qpos, tag)


def ensemble_labels(scorers, privacy):
    """Labeler that scores a whole pool with the noisy aggregate.

    scorers: teacher_scorers of the ensemble; privacy: its PrivacyConfig.
    Returns label_fn(query, pool doc indices, query position) -> score
    array, the labeler protocol of annotate_pools, with the noise of
    noise_stream(privacy, query position, NOISE_TAG).
    """
    def labels(query, pool, qpos):
        rng = noise_stream(privacy, qpos, NOISE_TAG) if privacy.noise_scale > 0 else None
        return noisy_aggregate(scorers, query.terms, pool, privacy.noise_scale, rng)

    return labels


def ensemble_run_scorers(scorers, privacy):
    """{run name: scores(queries_terms, pools)} of the teacher_NN, aggregate
    and (at a noise scale above 0) aggregate_noisy runs of one query set
    and pool size, for pipeline.model_run. The runs share one teacher_scores
    array per pool, which the first of them to score builds; aggregate_noisy
    draws pool i's noise from noise_stream(privacy, i, EVAL_NOISE_TAG).
    """
    arrays = []

    def pool_scores(queries_terms, pools):
        if not arrays:
            arrays.extend(teacher_scores(scorers, queries_terms, pools))
        return arrays

    runs = {
        f"teacher_{i:02d}": lambda terms, pools, i=i: [
            scores[:, i] for scores in pool_scores(terms, pools)]
        for i in range(len(scorers))
    }
    runs["aggregate"] = lambda terms, pools: [
        aggregate_scores(scores, 0.0) for scores in pool_scores(terms, pools)]
    if privacy.noise_scale > 0:
        runs["aggregate_noisy"] = lambda terms, pools: [
            aggregate_scores(scores, privacy.noise_scale,
                             noise_stream(privacy, qpos, EVAL_NOISE_TAG))
            for qpos, scores in enumerate(pool_scores(terms, pools))]
    return runs


def aggregate_agreement(scorers, queries_terms, pools, pairs):
    """pairwise_agreement of the noise-free aggregate with teacher_mean; each
    side scores the pools apart, in one call per teacher, so 1.0 means the
    zero-noise aggregate orders pairs exactly like the plain mean."""
    aggregates = [aggregate_scores(scores, 0.0)
                  for scores in teacher_scores(scorers, queries_terms, pools)]
    return pairwise_agreement(aggregates, teacher_mean(scorers, queries_terms, pools), pairs)


# ---------------------------------------------------------------------------
# Ensemble checkpoints


def save_ensemble(directory, teachers, config, teacher_seeds=None, shard_hashes=None):
    """Directory of per-teacher checkpoints plus a manifest; returns it.

    teachers: the ensemble's models in order, any iterable; each is
    written as it comes and no reference to it is kept, so a generator
    that trains them is saved with one teacher in memory. config: the
    ensemble's PrivacyConfig. A manifest already in the directory is
    removed before the first teacher file is written, and the new one is
    written after the last, so a directory whose writing failed has no
    manifest and load_ensemble refuses it.

    The manifest records n_partitions (the number of teachers), noise_scale,
    seeds, each teacher file's SHA-256 and optional shard content hashes;
    it is written with sorted keys and no timestamps so rewrites are
    byte-identical.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / ENSEMBLE_MANIFEST).unlink(missing_ok=True)
    files, hashes = [], []
    # a plain loop: enumerate and zip would hold the last teacher in their
    # result tuple while the next one is made
    for teacher in teachers:
        files.append(f"teacher_{len(files):02d}.ckpt")
        hashes.append(save_model(directory / files[-1], teacher))
        del teacher
    manifest = {
        "kind": "teacher-ensemble",
        "n_partitions": len(files),
        "noise_scale": config.noise_scale,
        "seed": config.seed,
        "teacher_seeds": teacher_seeds,
        "teacher_files": files,
        "teacher_sha256": hashes,
        "shard_hashes": shard_hashes,
    }
    write_json(directory / ENSEMBLE_MANIFEST, manifest)
    return directory


def read_ensemble_manifest(directory):
    """(PrivacyConfig, manifest dict) of a saved ensemble; no teacher is
    loaded. A manifest without a setting read here, or whose n_partitions is
    not its number of teacher_files, raises ValueError naming the manifest."""
    path = Path(directory) / ENSEMBLE_MANIFEST
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    try:
        count, files = manifest["n_partitions"], manifest["teacher_files"]
        config = PrivacyConfig(noise_scale=manifest["noise_scale"], seed=manifest["seed"])
    except KeyError as missing:
        raise ValueError(f"{path}: records no {missing.args[0]}") from None
    if count != len(files):
        raise ValueError(f"{path}: records n_partitions {count} for {len(files)} teacher_files")
    return config, manifest


def load_ensemble(directory):
    """(TeacherEnsemble, manifest dict) of a saved ensemble; a teacher file
    without the SHA-256 the manifest records for it raises ValueError
    naming the file, and a manifest that read_ensemble_manifest refuses, or
    that records no SHA-256 per teacher file, raises ValueError naming the
    manifest. Each file is read once: the bytes hashed are the bytes loaded."""
    config, manifest = read_ensemble_manifest(directory)
    where = Path(directory) / ENSEMBLE_MANIFEST
    files, hashes = manifest["teacher_files"], manifest.get("teacher_sha256")
    if not hashes:
        raise ValueError(f"{where}: records no teacher_sha256")
    if len(hashes) != len(files):
        raise ValueError(f"{where}: records {len(hashes)} teacher_sha256 for "
                         f"{len(files)} teacher_files")
    teachers = [load_model(Path(directory) / name, sha256=recorded)
                for name, recorded in zip(files, hashes)]
    return TeacherEnsemble(teachers=teachers, config=config), manifest


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
