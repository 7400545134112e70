"""Teacher-student training: a trained ranker labels unlabeled queries and
a fresh (usually smaller) model learns from those labels.

The student path deliberately has no access to relevance judgments or to
the teacher's original training data: everything it sees is (query,
document, document, label scores) tuples of index rows, where the labels
come from whatever labeler is plugged in. mimic_train is the one path for
both variants: model_labels of one teacher's pool_scorer gives plain
distillation and private.ensemble_labels the noisy teacher aggregate, so
the two are identical by construction up to the labeling function.
"""

from dataclasses import dataclass

import numpy as np

from . import seeding
from .corpus import annotate_pools
from .ranker import RankModelParams, init_params, score_batch, train

# fixed tags extending the caller's seed into independent sub-streams
ANNOTATE_TAG = 0
SPLIT_TAG = 1
INIT_TAG = 2
TRAIN_TAG = 3


@dataclass
class DistillResult:
    student: RankModelParams
    fidelity: float  # held-out sign agreement with the labels; None if no holdout
    annotation: object  # AnnotationReport from the labeling stage
    epoch_losses: list
    train_count: int
    heldout_count: int
    instances: list  # the soft-labeled instances the student trained on


def model_labels(scorer):
    """Labeler that scores a whole pool with one model's pool_scorer.

    Returns label_fn(query, pool doc indices, query position) -> score
    array, the protocol of annotate_pools: one scorer call per pool.
    Labelers built on one scorer share its table of document rows.
    """
    return lambda query, pool, qpos: scorer([query.terms], [pool])[0]


def _split_holdout(instances, fraction, seed):
    if fraction <= 0.0 or len(instances) < 2:
        return list(instances), []
    n = len(instances)
    n_held = max(1, int(round(fraction * n)))
    if n_held >= n:
        n_held = n - 1
    order = seeding.rng(seed, SPLIT_TAG).permutation(n)
    held = [instances[i] for i in order[:n_held]]
    kept = [instances[i] for i in order[n_held:]]
    return kept, held


def label_agreement(params, instances):
    """Fraction of instances whose label preference the model reproduces.

    Model ties count as disagreement (the model expresses no preference).
    Both documents of every instance are scored in one score_batch call,
    each distinct query_rows object meeting W_q once.
    """
    if not instances:
        return None
    n = len(instances)
    queries = [inst.query_rows for inst in instances]
    scores = score_batch(params, queries + queries,
                         [inst.doc1_rows for inst in instances]
                         + [inst.doc2_rows for inst in instances])
    s1, s2 = scores[:n], scores[n:]
    label_prefers_first = np.array([inst.s1 > inst.s2 for inst in instances])
    agree = (s1 != s2) & ((s1 > s2) == label_prefers_first)
    return int(agree.sum()) / n


def mimic_train(label_fn, student_config, unlabeled, index, epochs, seed,
                pool_size, pairs_per_query, heldout_fraction=0.1,
                embedding_file=None):
    """Generic mimic pipeline: label pools, hold out pairs, train a student.

    label_fn(query, pool doc indices, query position) -> scores. Every
    sub-stage derives its randomness from `seed` plus a fixed tag, so two
    labelers that return identical scores produce byte-identical students.
    heldout_fraction must lie in [0, 1).
    """
    if not 0.0 <= heldout_fraction < 1.0:
        raise ValueError(
            f"heldout_fraction must be in [0, 1), got {heldout_fraction}")
    instances, report = annotate_pools(
        index, unlabeled, label_fn, pool_size, pairs_per_query,
        seeding.entropy(seed, ANNOTATE_TAG),
    )
    if not instances:
        raise ValueError(
            "labeling produced no training pairs "
            f"({report.queries_skipped} of {report.queries_total} queries skipped, "
            f"{report.ties_discarded} tied pairs discarded)"
        )
    train_set, heldout = _split_holdout(instances, heldout_fraction, seed)
    student = init_params(
        student_config, index.vocabulary, index,
        embedding_file=embedding_file, seed=seeding.entropy(seed, INIT_TAG),
    )
    result = train(student, student_config, train_set, epochs,
                   seed=seeding.entropy(seed, TRAIN_TAG))
    fidelity = label_agreement(student, heldout)
    return DistillResult(
        student=student,
        fidelity=fidelity,
        annotation=report,
        epoch_losses=result.epoch_losses,
        train_count=len(train_set),
        heldout_count=len(heldout),
        instances=instances,
    )
