"""Teacher annotation and student training behavior."""

import inspect

import numpy as np
import pytest

from mimicrank.corpus import Query, annotate_pools, annotate_queries, write_annotations
from mimicrank.distill import label_agreement, mimic_train, model_labels
from mimicrank.pipeline import distill_student
from mimicrank.private import ensemble_labels, teacher_scorers
from mimicrank.ranker import init_params, pool_scorer, save_model, train
from tests.batch_reference import row_pairs
from tests.conftest import MICRO_STUDENT_CONFIG, MICRO_TEACHER_CONFIG
from tests.scoring_reference import score_batch, score_index_pool, score_pool


def mimic(teacher, index, unlabeled, **kwargs):
    """Plain distillation: mimic_train with one teacher's pool scores as labels."""
    return mimic_train(model_labels(pool_scorer(teacher, index)), MICRO_STUDENT_CONFIG,
                       unlabeled, index, **kwargs)


def test_zero_teacher_annotates_nothing(micro_collection, micro_index):
    # an untrained all-zero teacher scores every document 0: every sampled
    # pair ties and is discarded
    params = init_params(MICRO_TEACHER_CONFIG, micro_index.vocabulary,
                         micro_index, seed=1)
    for layer in params.layers:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    instances, report = annotate_pools(
        micro_index, micro_collection.unlabeled_queries,
        model_labels(pool_scorer(params, micro_index)), pool_size=10,
        pairs_per_query=5, seed=3)
    assert len(instances) == 0
    assert report.pairs_emitted == 0
    assert report.ties_discarded > 0
    with pytest.raises(ValueError, match="tied pairs discarded"):
        mimic(params, micro_index, micro_collection.unlabeled_queries,
              epochs=1, seed=3, pool_size=10, pairs_per_query=5)


def test_annotation_signs_match_teacher_preferences(micro_collection, micro_index,
                                                    micro_teacher):
    result = mimic(micro_teacher, micro_index, micro_collection.unlabeled_queries,
                   epochs=0, seed=11, pool_size=15, pairs_per_query=8)
    instances, report = result.pairs, result.annotation
    assert report.pairs_emitted == len(instances) > 0
    # independent rescoring of every pool, against labeling order, with a
    # fresh scorer of the same checkpoint: the labeler's path, so
    # bit-identical, as is the index-block reference; score_pool, which
    # blocks each pool's own rows, within 1e-12
    scorer = pool_scorer(micro_teacher, micro_index)
    rescored = {}
    for q in micro_collection.unlabeled_queries[::-1]:
        pool, _ = micro_index.search(q.terms, 15)
        scores = scorer([q.terms], [pool])[0]
        assert np.array_equal(scores, score_index_pool(micro_teacher, micro_index,
                                                       q.terms, pool))
        np.testing.assert_allclose(
            scores, score_pool(micro_teacher, q.terms,
                               [micro_index.doc_rows(d) for d in pool]),
            rtol=0, atol=1e-12)
        rescored[q.query_id] = {micro_index.doc_ids[d]: s for d, s in zip(pool, scores)}
    for inst in instances:
        r1 = rescored[inst.query_id][inst.doc1_id]
        r2 = rescored[inst.query_id][inst.doc2_id]
        assert inst.s1 == r1
        assert inst.s2 == r2
        assert (inst.s1 > inst.s2) == (r1 > r2)


def test_annotate_empty_queryset(micro_index, micro_teacher):
    labels = model_labels(pool_scorer(micro_teacher, micro_index))
    instances, report = annotate_pools(micro_index, [], labels,
                                       pool_size=5, pairs_per_query=3, seed=0)
    assert len(instances) == 0
    assert report.queries_total == 0
    with pytest.raises(ValueError, match="0 of 0 queries skipped"):
        mimic(micro_teacher, micro_index, [],
              epochs=1, seed=0, pool_size=5, pairs_per_query=3)


def test_distill_validates_pool_size(micro_collection, micro_index, micro_teacher):
    with pytest.raises(ValueError, match="pool_size"):
        mimic(micro_teacher, micro_index, micro_collection.unlabeled_queries,
              epochs=1, seed=0, pool_size=1, pairs_per_query=20)


def test_distill_zero_epochs_returns_initialization(micro_collection, micro_index,
                                                    micro_teacher):
    result = mimic(micro_teacher, micro_index, micro_collection.unlabeled_queries,
                   epochs=0, seed=41, pool_size=10, pairs_per_query=5)
    assert result.epoch_losses == []
    fresh = init_params(MICRO_STUDENT_CONFIG, micro_index.vocabulary,
                        micro_index, seed=[41, 2])
    assert np.array_equal(result.student.embedding, fresh.embedding)
    assert np.array_equal(result.student.term_weights, fresh.term_weights)


def test_distill_deterministic_checkpoint_bytes(tmp_path, micro_collection,
                                                micro_index, micro_teacher):
    kwargs = dict(pool_size=10, pairs_per_query=5, epochs=2, seed=43)
    a = mimic(micro_teacher, micro_index, micro_collection.unlabeled_queries, **kwargs)
    b = mimic(micro_teacher, micro_index, micro_collection.unlabeled_queries, **kwargs)
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(pa, a.student)
    save_model(pb, b.student)
    assert pa.read_bytes() == pb.read_bytes()
    assert a.epoch_losses == b.epoch_losses
    assert a.fidelity == b.fidelity


def test_distill_improves_label_agreement_over_training(micro_collection,
                                                        micro_index, micro_teacher):
    # compare agreement on the pairs the student actually optimizes; the
    # held-out split at this scale is a handful of pairs and pure noise
    untrained = mimic(micro_teacher, micro_index, micro_collection.unlabeled_queries,
                      epochs=0, seed=47, pool_size=12, pairs_per_query=8)
    trained = mimic(micro_teacher, micro_index, micro_collection.unlabeled_queries,
                    epochs=8, seed=47, pool_size=12, pairs_per_query=8)
    assert trained.heldout_count > 0
    assert trained.train_count + trained.heldout_count == len(trained.pairs)
    assert 0.0 <= trained.fidelity <= 1.0
    before = label_agreement(pool_scorer(untrained.student, micro_index), trained.pairs)
    after = label_agreement(trained.scorer, trained.pairs)
    assert after > before
    assert trained.epoch_losses[-1] < trained.epoch_losses[0]


def test_distill_holdout_fraction_zero_has_no_fidelity(micro_collection,
                                                       micro_index, micro_teacher):
    result = mimic(micro_teacher, micro_index, micro_collection.unlabeled_queries,
                   epochs=1, seed=53, pool_size=10, pairs_per_query=4,
                   heldout_fraction=0.0)
    assert result.fidelity is None
    assert result.heldout_count == 0


@pytest.mark.parametrize("fraction", [1.5, 1.0, -0.1])
def test_mimic_train_rejects_heldout_fraction_outside_unit_interval(
        micro_collection, micro_index, micro_teacher, fraction):
    # 1.5 used to train the student on a single pair
    with pytest.raises(ValueError, match=r"heldout_fraction must be in \[0, 1\)"):
        mimic_train(model_labels(pool_scorer(micro_teacher, micro_index)),
                    MICRO_STUDENT_CONFIG, micro_collection.unlabeled_queries,
                    micro_index, epochs=1, seed=0, pool_size=10, pairs_per_query=4,
                    heldout_fraction=fraction)


def test_distill_raises_when_no_pairs(micro_index, micro_teacher):
    hopeless = [Query("qz", ("qqqq", "zzzz"))]  # OOV: retrieves nothing
    with pytest.raises(ValueError, match="no training pairs"):
        mimic(micro_teacher, micro_index, hopeless,
              epochs=1, seed=0, pool_size=5, pairs_per_query=2)


def test_distill_independent_of_teacher_training_files(tmp_path, micro_collection,
                                                       micro_index):
    # train a teacher from annotations written to disk, delete the file,
    # then distill: the student path must not touch it
    ann_path = tmp_path / "train.tsv"
    instances, _ = annotate_queries(micro_index, micro_collection.train_queries,
                                    pool_size=15, pairs_per_query=8, seed=17)
    write_annotations(ann_path, instances)
    teacher = init_params(MICRO_TEACHER_CONFIG, micro_index.vocabulary,
                          micro_index, seed=23)
    train(teacher, MICRO_TEACHER_CONFIG, instances, epochs=3, seed=29)
    ann_path.unlink()
    result = mimic(teacher, micro_index, micro_collection.unlabeled_queries,
                   epochs=1, seed=59, pool_size=10, pairs_per_query=4)
    assert result.train_count > 0


def test_student_path_has_no_qrels_parameter():
    # structural privacy property: nothing on the student's path, from the
    # labelers of one teacher or of the noisy ensemble to the pipeline's
    # distill stage, can even accept relevance judgments
    for fn in (model_labels, teacher_scorers, ensemble_labels, mimic_train,
               distill_student):
        names = set(inspect.signature(fn).parameters)
        assert not any("qrel" in n or "judg" in n for n in names), fn.__name__


def test_label_agreement_counts_model_ties_as_disagreement(micro_collection,
                                                           micro_index):
    zero = init_params(MICRO_STUDENT_CONFIG, micro_index.vocabulary,
                       micro_index, seed=3)
    for layer in zero.layers:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    instances, _ = annotate_queries(micro_index,
                                    micro_collection.train_queries[:4],
                                    pool_size=10, pairs_per_query=4, seed=61)
    scorer = pool_scorer(zero, micro_index)
    assert label_agreement(scorer, instances) == 0.0
    assert label_agreement(scorer, instances.take([])) is None


def test_label_agreement_scores_pairs_as_the_batch_reference(micro_collection,
                                                             micro_index, micro_teacher):
    # one pool per query through a fresh pool_scorer, against both rows of
    # every pair scored by the reference, each query rows object once
    pairs, _ = annotate_queries(micro_index, micro_collection.unlabeled_queries,
                                pool_size=15, pairs_per_query=8, seed=67)
    shuffled = pairs.take(np.random.default_rng(5).permutation(len(pairs)))
    rows = row_pairs(shuffled)
    queries = [pair.query_rows for pair in rows]
    scores = score_batch(micro_teacher, queries + queries,
                         [pair.doc1_rows for pair in rows] + [pair.doc2_rows for pair in rows])
    s1, s2 = scores[:len(rows)], scores[len(rows):]
    agree = (s1 != s2) & ((s1 > s2) == (shuffled.s1 > shuffled.s2))
    scorer = pool_scorer(micro_teacher, micro_index)
    assert 0.0 < label_agreement(scorer, shuffled) == agree.mean() < 1.0
