"""Partitioning, Laplace mechanism, noisy aggregation, private distillation."""

import dataclasses
import inspect
import json
import math
import re
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimicrank import nn, private, ranker, seeding
from mimicrank.corpus import PairSet, annotate_queries, build_index
from mimicrank.distill import mimic_train, model_labels
from mimicrank.private import (
    PrivacyConfig,
    TeacherEnsemble,
    aggregate_scores,
    draw_uniform,
    ensemble_labels,
    file_sha256,
    laplace_noise,
    laplace_sample,
    load_ensemble,
    noisy_aggregate,
    pairwise_agreement,
    partition_data,
    read_ensemble_manifest,
    save_ensemble,
    teacher_mean,
    teacher_scorers,
    teacher_scores,
    train_teachers,
)
from mimicrank.ranker import init_params, pool_scorer, save_model, train
from tests.conftest import MICRO_STUDENT_CONFIG, MICRO_TEACHER_CONFIG
from tests.scoring_reference import score_index_pool


@pytest.fixture(scope="module")
def micro_instances(micro_collection, micro_index):
    instances, _ = annotate_queries(micro_index, micro_collection.train_queries,
                                    pool_size=15, pairs_per_query=8, seed=17)
    return instances


def trained_ensemble(directory, shards, index, **kwargs):
    """The micro teachers train_teachers writes to directory, loaded back."""
    return load_ensemble(train_teachers(shards, MICRO_TEACHER_CONFIG, index,
                                        directory=directory, **kwargs))[0]


@pytest.fixture(scope="module")
def micro_ensemble(micro_instances, micro_index, tmp_path_factory):
    shards = partition_data(micro_instances, 3, seed=71)
    return trained_ensemble(tmp_path_factory.mktemp("micro_ensemble"), shards,
                            micro_index, epochs=3, base_seed=73,
                            privacy_config=PrivacyConfig(0.0, seed=79))


# ---------------------------------------------------------------------------
# Config and partitioning


def test_privacy_config_validation():
    with pytest.raises(ValueError):
        PrivacyConfig(noise_scale=-0.1)
    # NaN fails `scale > 0`, so it used to release the noise-free mean
    for scale in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="noise_scale must be finite"):
            PrivacyConfig(noise_scale=scale)
    cfg = PrivacyConfig()
    assert cfg.noise_scale == 0.05
    # an ensemble's size is its teachers: the config holds the noise only
    assert [f.name for f in dataclasses.fields(PrivacyConfig)] == ["noise_scale", "seed"]


def numbered_pairs(n):
    """A PairSet of n pairs with distinct records: pair k asks query i{k}
    about two documents; no row is read."""
    docs = type("Docs", (), {"doc_ids": ["d0", "d1"]})
    return PairSet(docs, [f"i{k}" for k in range(n)], [None] * n, np.arange(n),
                   np.zeros(n), np.ones(n), np.arange(n) + 1.0, np.zeros(n))


def records(shards):
    return [list(shard) for shard in shards]


def test_partition_sizes():
    nine = numbered_pairs(9)
    sizes = [len(s) for s in partition_data(nine, 3, seed=0)]
    assert sizes == [3, 3, 3]
    ten = numbered_pairs(10)
    sizes = [len(s) for s in partition_data(ten, 3, seed=0)]
    assert sizes == [4, 3, 3]


def test_partition_disjoint_and_covering():
    items = numbered_pairs(17)
    shards = partition_data(items, 4, seed=5)
    combined = Counter()
    for shard in shards:
        combined.update(shard)
    assert combined == Counter(items)
    flat_sets = [set(s) for s in shards]
    for i in range(len(flat_sets)):
        for j in range(i + 1, len(flat_sets)):
            assert not flat_sets[i] & flat_sets[j]
    # shards share the set's tables and take its pairs in permutation order
    order = seeding.rng(5).permutation(17)
    for i, shard in enumerate(shards):
        assert shard.index is items.index and shard.query_ids is items.query_ids
        assert list(shard) == list(items.take(order[i::4]))


def test_partition_deterministic():
    items = numbered_pairs(20)
    assert records(partition_data(items, 3, seed=9)) == records(partition_data(items, 3, seed=9))
    assert records(partition_data(items, 3, seed=9)) != records(
        partition_data(items, 3, seed=10))


def test_partition_rejects_more_shards_than_items():
    with pytest.raises(ValueError, match="no data"):
        partition_data(numbered_pairs(2), 3, seed=0)
    with pytest.raises(ValueError):
        partition_data(numbered_pairs(2), 0, seed=0)


# ---------------------------------------------------------------------------
# Laplace mechanism


def test_laplace_median_is_zero():
    assert laplace_sample(1.0, 0.0) == 0.0


def test_laplace_hand_value():
    assert laplace_sample(1.0, 0.25) == pytest.approx(-math.log(0.5))
    assert laplace_sample(1.0, -0.25) == pytest.approx(math.log(0.5))


def test_laplace_zero_scale_is_silent():
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert laplace_sample(0.0, draw_uniform(rng)) == 0.0


def test_laplace_domain_validation():
    with pytest.raises(ValueError):
        laplace_sample(-1.0, 0.1)
    with pytest.raises(ValueError):
        laplace_sample(1.0, 0.6)
    with pytest.raises(ValueError):
        laplace_sample(1.0, -0.5)
    assert laplace_sample(1.0, 0.5) == math.inf  # right endpoint, redrawn upstream


@pytest.mark.parametrize("scale", [0.05, 1.0])
def test_laplace_moments(scale):
    rng = np.random.default_rng(12345)
    n = 100_000
    samples = np.array([laplace_sample(scale, draw_uniform(rng)) for _ in range(n)])
    assert abs(samples.mean()) <= 0.02 * scale
    target_var = 2.0 * scale * scale
    assert abs(samples.var() - target_var) <= 0.05 * target_var


def test_draw_uniform_stays_in_open_interval():
    rng = np.random.default_rng(2)
    us = [draw_uniform(rng) for _ in range(10_000)]
    assert all(-0.5 < u < 0.5 for u in us)


class ScriptedRandom:
    """random() and random(n) over a fixed list of doubles, in order."""

    def __init__(self, values):
        self.values, self.taken = list(values), 0

    def random(self, size=None):
        first, self.taken = self.taken, self.taken + (1 if size is None else size)
        if size is None:
            return self.values[first]
        return np.array(self.values[first:self.taken])


def scalar_noise(scale, rng, n):
    return np.array([laplace_sample(scale, draw_uniform(rng)) for _ in range(n)])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300),
       scale=st.sampled_from([0.05, 1.0, 3.7]))
def test_laplace_noise_is_the_scalar_loop(seed, n, scale):
    # aggregate_scores draws its noise in one call; each draw and the
    # generator's state after it must be the scalar loop's, bit for bit
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    assert laplace_noise(scale, fast, n).tobytes() == scalar_noise(scale, slow, n).tobytes()
    assert fast.random() == slow.random()


def test_laplace_noise_redraws_a_zero_uniform_like_draw_uniform():
    # a 0.0 uniform (u = 0.5) is redrawn, so every later draw shifts by one;
    # 0.5 gives u = 0 and noise 0.0
    values = [0.0, 0.3, 0.0, 0.0, 0.9, 0.5, 0.7, 0.0, 0.1, 0.25, 0.6, 0.8, 0.0, 0.4]
    fast, slow = ScriptedRandom(values), ScriptedRandom(values)
    got = laplace_noise(0.05, fast, 8)
    assert got.tobytes() == scalar_noise(0.05, slow, 8).tobytes()
    assert fast.taken == slow.taken == 12
    assert got[2] == 0.0


# ---------------------------------------------------------------------------
# Ensembles and aggregation


def test_train_teachers_seeded_and_distinct(micro_instances, micro_index, tmp_path):
    shards = partition_data(micro_instances, 3, seed=71)
    for name in ("a", "b"):
        train_teachers(shards, MICRO_TEACHER_CONFIG, micro_index, epochs=2,
                       base_seed=101, privacy_config=PrivacyConfig(),
                       directory=tmp_path / name)
    for i in range(3):
        name = f"teacher_{i:02d}.ckpt"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # teachers trained on disjoint shards differ from each other
    assert ((tmp_path / "a" / "teacher_00.ckpt").read_bytes()
            != (tmp_path / "a" / "teacher_01.ckpt").read_bytes())


def test_single_teacher_ensemble_equals_plain_training(micro_instances,
                                                       micro_index, tmp_path):
    shards = partition_data(micro_instances, 1, seed=71)
    train_teachers(shards, MICRO_TEACHER_CONFIG, micro_index, epochs=2, base_seed=103,
                   privacy_config=PrivacyConfig(0.0, seed=0), directory=tmp_path / "ens")
    plain = init_params(MICRO_TEACHER_CONFIG, micro_index.vocabulary,
                        micro_index, seed=103)
    train(plain, MICRO_TEACHER_CONFIG, shards[0], epochs=2, seed=103)
    save_model(tmp_path / "plain.ckpt", plain)
    assert ((tmp_path / "ens" / "teacher_00.ckpt").read_bytes()
            == (tmp_path / "plain.ckpt").read_bytes())


def test_one_trained_teacher_is_alive_while_each_teacher_trains(
        monkeypatch, micro_instances, micro_index, tmp_path):
    # each teacher is written and released before the next is made, so
    # the models that reach train are never alive together
    refs, seen = [], []

    def counting_train(params, *args, **kwargs):
        refs.append(weakref.ref(params))
        seen.append(sum(ref() is not None for ref in refs))
        return train(params, *args, **kwargs)

    monkeypatch.setattr(private, "train", counting_train)
    shards = partition_data(micro_instances, 3, seed=71)
    train_teachers(shards, MICRO_TEACHER_CONFIG, micro_index, epochs=1, base_seed=73,
                   privacy_config=PrivacyConfig(0.0, seed=79), directory=tmp_path)
    assert seen == [1, 1, 1]


def test_failed_ensemble_leaves_no_manifest(monkeypatch, micro_instances, micro_index,
                                            tmp_path):
    shards = partition_data(micro_instances, 3, seed=71)
    config = PrivacyConfig(0.0, seed=79)
    run = dict(epochs=1, base_seed=73, privacy_config=config, directory=tmp_path)
    train_teachers(shards, MICRO_TEACHER_CONFIG, micro_index, **run)
    complete = load_ensemble(tmp_path)[0]
    calls = []

    def failing_train(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("teacher 2 failed")
        return train(*args, **kwargs)

    monkeypatch.setattr(private, "train", failing_train)
    with pytest.raises(RuntimeError, match="teacher 2 failed"):
        train_teachers(shards, MICRO_TEACHER_CONFIG, micro_index, **run)
    # the earlier ensemble's manifest went before the first new teacher file
    assert not (tmp_path / "manifest.json").exists()
    with pytest.raises(FileNotFoundError):
        load_ensemble(tmp_path)
    # a save of the complete ensemble writes it again
    save_ensemble(tmp_path, complete.teachers, config)
    assert len(load_ensemble(tmp_path)[0].teachers) == 3


def test_ensemble_validates_shape(micro_collection, micro_ensemble):
    # any number of teachers is an ensemble, as long as they index terms alike
    for n in (1, 2, 3):
        assert len(TeacherEnsemble(micro_ensemble.teachers[:n], PrivacyConfig()).teachers) == n
    other = build_index(micro_collection.documents[:30])
    stranger = init_params(MICRO_TEACHER_CONFIG, other.vocabulary, other, seed=1)
    with pytest.raises(ValueError, match="teacher 2 vocabulary differs from teacher 0"):
        TeacherEnsemble(micro_ensemble.teachers[:2] + [stranger], PrivacyConfig())


def _pool(micro_index, query, depth=10):
    """(index positions, their doc rows) of a query's BM25 pool."""
    pool, _ = micro_index.search(query.terms, depth)
    assert len(pool) > 1
    return pool, [micro_index.doc_rows(d) for d in pool]


def test_noise_free_aggregate_is_exact_mean(micro_collection, micro_index,
                                            micro_ensemble):
    query = micro_collection.eval_queries[0]
    pool, rows = _pool(micro_index, query)
    scorers = teacher_scorers(micro_ensemble, micro_index)
    agg = noisy_aggregate(scorers, query.terms, pool, 0.0)
    assert agg.shape == (len(rows),)
    # left-to-right reference on the index-block reference's pool scores
    acc = 0.0
    for t in micro_ensemble.teachers:
        acc += score_index_pool(t, micro_index, query.terms, pool)
    assert np.array_equal(agg, acc / 3)
    assert np.array_equal(agg, teacher_mean(scorers, [query.terms], [pool])[0])


def test_aggregate_hand_mean():
    # exact arithmetic on the stated values, no model involved
    scores = [0.2, 0.4, 0.6]
    acc = 0.0
    for s in scores:
        acc += s
    assert acc / 3 == pytest.approx(0.4)


def test_single_teacher_aggregate_identity(micro_instances, micro_index,
                                           micro_collection, tmp_path):
    shards = partition_data(micro_instances, 1, seed=71)
    ens = trained_ensemble(tmp_path, shards, micro_index, epochs=1,
                           base_seed=107,
                           privacy_config=PrivacyConfig(0.0, seed=0))
    query = micro_collection.eval_queries[0]
    pool, _ = _pool(micro_index, query)
    assert np.array_equal(noisy_aggregate(teacher_scorers(ens, micro_index), query.terms,
                                          pool, 0.0),
                          score_index_pool(ens.teachers[0], micro_index, query.terms, pool))


def test_noisy_aggregate_reproducible(micro_collection, micro_index,
                                      micro_instances, tmp_path):
    shards = partition_data(micro_instances, 3, seed=71)
    ens = trained_ensemble(tmp_path, shards, micro_index, epochs=1,
                           base_seed=109,
                           privacy_config=PrivacyConfig(0.05, seed=0))
    query = micro_collection.eval_queries[0]
    q, (pool, _) = query.terms, _pool(micro_index, query)
    scorers = teacher_scorers(ens, micro_index)
    a = noisy_aggregate(scorers, q, pool, 0.05, np.random.default_rng(99))
    b = noisy_aggregate(scorers, q, pool, 0.05, np.random.default_rng(99))
    c = noisy_aggregate(scorers, q, pool, 0.05, np.random.default_rng(100))
    assert np.array_equal(a, b)
    assert not np.any(a == c)
    assert not np.any(a == teacher_mean(scorers, [q], [pool])[0])
    with pytest.raises(ValueError, match="rng"):
        noisy_aggregate(scorers, q, pool, 0.05)


def test_noisy_aggregate_draws_document_major(micro_collection, micro_index,
                                              micro_instances, tmp_path):
    # noise per (document, teacher), documents outer and teachers inner,
    # added to each teacher's score before the left-to-right mean
    shards = partition_data(micro_instances, 3, seed=71)
    ens = trained_ensemble(tmp_path, shards, micro_index, epochs=1,
                           base_seed=109,
                           privacy_config=PrivacyConfig(0.05, seed=0))
    query = micro_collection.eval_queries[0]
    q, (pool, rows) = query.terms, _pool(micro_index, query)
    got = noisy_aggregate(teacher_scorers(ens, micro_index), q, pool, 0.05,
                          np.random.default_rng(5))
    rng = np.random.default_rng(5)
    noise = [[laplace_sample(0.05, draw_uniform(rng)) for _ in range(3)]
             for _ in rows]
    clean = [score_index_pool(t, micro_index, q, pool) for t in ens.teachers]
    for d in range(len(rows)):
        acc = 0.0
        for i in range(3):
            acc += clean[i][d] + noise[d][i]
        assert got[d] == acc / 3


def test_teacher_scores_columns_and_their_reduction(micro_collection, micro_index,
                                                    micro_ensemble):
    # the pate rank stage derives every ensemble run from this array, so
    # each column must be that teacher's pool scores and the aggregate its
    # reduction, bit for bit
    query = micro_collection.eval_queries[0]
    q, (pool, rows) = query.terms, _pool(micro_index, query)
    scorers = teacher_scorers(micro_ensemble, micro_index)
    scores, = teacher_scores(scorers, [q], [pool])
    assert scores.shape == (len(rows), 3)
    for i, t in enumerate(micro_ensemble.teachers):
        assert np.array_equal(scores[:, i], score_index_pool(t, micro_index, q, pool))
    assert np.array_equal(noisy_aggregate(scorers, q, pool, 0.05, np.random.default_rng(5)),
                          aggregate_scores(scores, 0.05, np.random.default_rng(5)))
    assert np.array_equal(aggregate_scores(scores, 0.0), teacher_mean(scorers, [q], [pool])[0])
    with pytest.raises(ValueError, match="rng"):
        aggregate_scores(scores, 0.05)
    # every pool of one call is that pool's array alone
    other = micro_collection.eval_queries[1]
    other_pool, _ = _pool(micro_index, other)
    both = teacher_scores(scorers, [q, other.terms], [pool, other_pool])
    assert np.array_equal(both[0], scores)
    assert np.array_equal(both[1], teacher_scores(scorers, [other.terms], [other_pool])[0])
    assert teacher_scores(scorers, [], []) == []
    # and so is every pool's teacher mean, the reduction of its array
    means = teacher_mean(scorers, [q, other.terms], [pool, other_pool])
    assert len(means) == 2
    for mean, array in zip(means, both, strict=True):
        assert np.array_equal(mean, aggregate_scores(array, 0.0))
    assert teacher_mean(scorers, [], []) == []


def test_pairwise_agreement_nonnoisy_vs_mean_is_exactly_one(micro_collection,
                                                            micro_index,
                                                            micro_ensemble):
    terms, pools, pairs = [], [], []
    for q in micro_collection.eval_queries:
        pool, _ = micro_index.search(q.terms, 6)
        terms.append(q.terms)
        pools.append(pool)
        pairs.append([(i, i + 1) for i in range(len(pool) - 1)])
    scorers = teacher_scorers(micro_ensemble, micro_index)
    calls = []

    def counted(scorer):
        def scores(queries_terms, score_pools):
            calls.append([len(pool) for pool in score_pools])
            return scorer(queries_terms, score_pools)
        return scores

    means = teacher_mean(list(map(counted, scorers)), terms, pools)
    # one call per teacher, over every pool
    assert calls == [list(map(len, pools))] * 3
    aggregates = [noisy_aggregate(scorers, q, pool, 0.0) for q, pool in zip(terms, pools)]
    assert pairwise_agreement(aggregates, means, pairs) == 1.0


def test_pairwise_agreement_counts_ties_and_opposites():
    pairs = [[(0, 1), (1, 2), (0, 2)]]
    a = np.array([0.3, 0.3, 0.1])
    b = np.array([0.2, 0.3, 0.1])
    # (0, 1): tie vs below, (1, 2): both above, (0, 2): both above
    assert pairwise_agreement([a], [b], pairs) == 2 / 3
    assert pairwise_agreement([a], [a], pairs) == 1.0
    # pairs are counted over every pool, in either order within a pair
    assert pairwise_agreement([a, b[::-1]], [b, b[::-1]], pairs + [[(2, 0)]]) == 3 / 4
    assert pairwise_agreement([a], [b], [[]]) is None
    assert pairwise_agreement([], [], []) is None


def test_ensemble_save_load_round_trip(tmp_path, micro_ensemble, micro_collection,
                                       micro_index):
    out = tmp_path / "ensemble"
    save_ensemble(out, micro_ensemble.teachers, micro_ensemble.config,
                  teacher_seeds=[73, 74, 75], shard_hashes=["x", "y", "z"])
    loaded, manifest = load_ensemble(out)
    assert manifest["n_partitions"] == 3
    assert manifest["teacher_seeds"] == [73, 74, 75]
    query = micro_collection.eval_queries[0]
    pool, _ = _pool(micro_index, query)
    assert np.array_equal(
        noisy_aggregate(teacher_scorers(loaded, micro_index), query.terms, pool, 0.0),
        noisy_aggregate(teacher_scorers(micro_ensemble, micro_index), query.terms, pool,
                        0.0))
    # manifest rewrite is byte-stable
    before = (out / "manifest.json").read_bytes()
    save_ensemble(out, loaded.teachers, loaded.config, teacher_seeds=[73, 74, 75],
                  shard_hashes=["x", "y", "z"])
    assert (out / "manifest.json").read_bytes() == before


@pytest.mark.parametrize("damage", ["swapped", "truncated"])
def test_ensemble_refuses_a_teacher_file_changed_after_saving(tmp_path, micro_ensemble,
                                                               damage):
    out = tmp_path / "ensemble"
    save_ensemble(out, micro_ensemble.teachers, micro_ensemble.config)
    manifest = load_ensemble(out)[1]
    assert manifest["teacher_sha256"] == [file_sha256(out / name)
                                          for name in manifest["teacher_files"]]
    victim = out / "teacher_01.ckpt"
    if damage == "swapped":
        victim.write_bytes((out / "teacher_00.ckpt").read_bytes())
    else:
        victim.write_bytes(victim.read_bytes()[:-8])
    with pytest.raises(ValueError, match=re.escape(f"{victim}: file does not match the SHA-256")):
        load_ensemble(out)


def test_ensemble_reads_each_teacher_file_once(tmp_path, micro_ensemble, monkeypatch):
    # the SHA-256 check and the load see the same bytes: one open per file
    out = tmp_path / "ensemble"
    save_ensemble(out, micro_ensemble.teachers, micro_ensemble.config)
    opened, real_open = Counter(), open

    def counting_open(file, *args, **kwargs):
        opened[Path(file).name] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    ensemble, manifest = load_ensemble(out)
    assert len(ensemble.teachers) == 3
    assert {name: opened[name] for name in manifest["teacher_files"]} == {
        f"teacher_{i:02d}.ckpt": 1 for i in range(3)}


def test_ensemble_refuses_a_manifest_without_teacher_hashes(tmp_path, micro_ensemble):
    out = tmp_path / "ensemble"
    save_ensemble(out, micro_ensemble.teachers, micro_ensemble.config)
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["teacher_sha256"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="manifest.json: records no teacher_sha256"):
        load_ensemble(out)


def test_ensemble_refuses_a_manifest_without_its_partition_count(tmp_path, micro_ensemble):
    out = tmp_path / "ensemble"
    save_ensemble(out, micro_ensemble.teachers, micro_ensemble.config)
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["n_partitions"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    for read in (read_ensemble_manifest, load_ensemble):
        with pytest.raises(ValueError, match="manifest.json: records no n_partitions"):
            read(out)


@pytest.mark.parametrize("count", [2, 4])
def test_ensemble_refuses_a_manifest_whose_count_is_not_its_teacher_files(
        tmp_path, micro_ensemble, count):
    out = tmp_path / "ensemble"
    save_ensemble(out, micro_ensemble.teachers, micro_ensemble.config)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_partitions"] == len(manifest["teacher_files"]) == 3
    manifest["n_partitions"] = count
    (out / "manifest.json").write_text(json.dumps(manifest))
    problem = f"{out / 'manifest.json'}: records n_partitions {count} for 3 teacher_files"
    for read in (read_ensemble_manifest, load_ensemble):
        with pytest.raises(ValueError, match=re.escape(problem)):
            read(out)


def test_ensemble_refuses_a_manifest_with_a_hash_missing(tmp_path, micro_ensemble):
    out = tmp_path / "ensemble"
    save_ensemble(out, micro_ensemble.teachers, micro_ensemble.config)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["teacher_sha256"] = manifest["teacher_sha256"][:2]
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="manifest.json: records 2 teacher_sha256 for 3 "
                                         "teacher_files"):
        load_ensemble(out)


def test_pool_labelers_run_one_forward_per_pool_and_model(
        monkeypatch, micro_collection, micro_index, micro_teacher, micro_ensemble):
    rows_per_call = []
    forward = nn.forward

    def counting_forward(layers, x, *args, **kwargs):
        rows_per_call.append(len(x))
        return forward(layers, x, *args, **kwargs)

    monkeypatch.setattr(nn, "forward", counting_forward)
    pools = []
    for qpos, query in enumerate(micro_collection.eval_queries):
        pool, _ = micro_index.search(query.terms, 12)
        pools.append((query, pool, qpos))
    for labeler, n_models in (
            (model_labels(pool_scorer(micro_teacher, micro_index)), 1),
            (ensemble_labels(teacher_scorers(micro_ensemble, micro_index),
                             micro_ensemble.config), 3)):
        rows_per_call.clear()
        for query, pool, qpos in pools:
            assert len(labeler(query, pool, qpos)) == len(pool)
        # each forward pads its pool to a multiple of ranker._PAD_ROWS rows
        assert rows_per_call == [math.ceil(len(pool) / ranker._PAD_ROWS) * ranker._PAD_ROWS
                                 for _, pool, _ in pools for _ in range(n_models)]


def test_pool_labelers_reject_another_vocabulary(micro_collection, micro_index,
                                                 micro_teacher, micro_ensemble):
    # labelers are built on scorers, and building a scorer checks the model
    other = build_index(micro_collection.documents[:30])
    sizes = f"({len(micro_index.vocabulary)} terms).*({len(other.vocabulary)} terms)"
    with pytest.raises(ValueError, match=sizes):
        pool_scorer(micro_teacher, other)
    with pytest.raises(ValueError, match=sizes):
        teacher_scorers(micro_ensemble, other)


def test_file_sha256(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"abc")
    assert file_sha256(p) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


# ---------------------------------------------------------------------------
# Private distillation


def private_mimic(ensemble, index, unlabeled, **kwargs):
    """mimic_train with the ensemble's noisy aggregate as the labels."""
    labels = ensemble_labels(teacher_scorers(ensemble, index), ensemble.config)
    return mimic_train(labels, MICRO_STUDENT_CONFIG, unlabeled, index, **kwargs)


def test_pate_reduces_to_distill_for_single_noiseless_teacher(
        tmp_path, micro_instances, micro_index, micro_collection):
    shards = partition_data(micro_instances, 1, seed=71)
    ens = trained_ensemble(tmp_path, shards, micro_index, epochs=2,
                           base_seed=113,
                           privacy_config=PrivacyConfig(0.0, seed=0))
    kwargs = dict(pool_size=10, pairs_per_query=5, epochs=2, seed=127)
    private = private_mimic(ens, micro_index, micro_collection.unlabeled_queries,
                            **kwargs)
    plain = mimic_train(model_labels(pool_scorer(ens.teachers[0], micro_index)),
                        MICRO_STUDENT_CONFIG, micro_collection.unlabeled_queries,
                        micro_index, **kwargs)
    pa, pb = tmp_path / "private.ckpt", tmp_path / "plain.ckpt"
    save_model(pa, private.student)
    save_model(pb, plain.student)
    assert pa.read_bytes() == pb.read_bytes()
    assert private.epoch_losses == plain.epoch_losses
    assert private.fidelity == plain.fidelity


def test_pate_noise_changes_labels_not_determinism(micro_instances, micro_index,
                                                   micro_collection, tmp_path):
    shards = partition_data(micro_instances, 3, seed=71)
    noisy_cfg = PrivacyConfig(0.05, seed=131)
    ens = trained_ensemble(tmp_path, shards, micro_index, epochs=2,
                           base_seed=137, privacy_config=noisy_cfg)
    kwargs = dict(pool_size=10, pairs_per_query=5, epochs=1, seed=139)
    a = private_mimic(ens, micro_index, micro_collection.unlabeled_queries, **kwargs)
    b = private_mimic(ens, micro_index, micro_collection.unlabeled_queries, **kwargs)
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(pa, a.student)
    save_model(pb, b.student)
    assert pa.read_bytes() == pb.read_bytes()
    assert a.epoch_losses == b.epoch_losses


def test_pate_student_agrees_with_aggregate(micro_instances, micro_index,
                                            micro_collection, tmp_path):
    shards = partition_data(micro_instances, 3, seed=71)
    ens = trained_ensemble(tmp_path, shards, micro_index, epochs=3,
                           base_seed=149,
                           privacy_config=PrivacyConfig(0.0, seed=0))
    result = private_mimic(ens, micro_index, micro_collection.unlabeled_queries,
                           pool_size=12, pairs_per_query=8, epochs=8, seed=151)
    assert result.heldout_count > 0
    assert result.fidelity is not None
    zero_epochs = private_mimic(ens, micro_index, micro_collection.unlabeled_queries,
                                pool_size=12, pairs_per_query=8, epochs=0, seed=151)
    assert result.fidelity >= zero_epochs.fidelity


def test_pate_has_no_qrels_parameter():
    # the private labelers feed the student only the teachers' noisy scores
    for fn in (teacher_scorers, ensemble_labels):
        names = set(inspect.signature(fn).parameters)
        assert not any("qrel" in n or "judg" in n for n in names), fn.__name__


def test_pate_ignores_deleted_shard_data(tmp_path, micro_instances, micro_index,
                                         micro_collection):
    # write shards to disk, train teachers, delete the files, then distill:
    # the student path consumes only noisy labels
    from mimicrank.corpus import write_annotations

    shards = partition_data(micro_instances, 3, seed=71)
    shard_paths = []
    for i, shard in enumerate(shards):
        p = tmp_path / f"shard_{i}.tsv"
        write_annotations(p, shard)
        shard_paths.append(p)
    ens = trained_ensemble(tmp_path, shards, micro_index, epochs=1,
                           base_seed=157,
                           privacy_config=PrivacyConfig(0.05, seed=163))
    for p in shard_paths:
        p.unlink()
    result = private_mimic(ens, micro_index, micro_collection.unlabeled_queries,
                           pool_size=10, pairs_per_query=4, epochs=1, seed=167)
    assert result.train_count > 0
