"""Teacher-student training: a trained ranker labels unlabeled queries and
a fresh (usually smaller) model learns from those labels.

The student path deliberately has no access to relevance judgments or to
the teacher's original training data: everything it sees is a
corpus.PairSet of (query, document, document, label scores) pairs over
index positions, where the labels come from whatever labeler is plugged
in. mimic_train is the one path for both variants: model_labels of one
teacher's pool_scorer gives plain distillation and private.ensemble_labels
the noisy teacher aggregate, so the two are identical by construction up
to the labeling function. mimic_train also builds the trained student's
one pool_scorer: it scores the held-out pairs, and callers rank with it,
so scoring represents each document at most once for the student.
"""

from dataclasses import dataclass

import numpy as np

from . import seeding
from .corpus import annotate_pools
from .ranker import RankModelParams, init_params, pool_scorer, train

# fixed tags extending the caller's seed into independent sub-streams
ANNOTATE_TAG = 0
SPLIT_TAG = 1
INIT_TAG = 2
TRAIN_TAG = 3


@dataclass
class DistillResult:
    student: RankModelParams
    scorer: object  # the student's pool_scorer, which scored the held-out pairs
    fidelity: float  # held-out sign agreement with the labels; None if no holdout
    annotation: object  # AnnotationReport from the labeling stage
    epoch_losses: list
    train_count: int
    heldout_count: int
    pairs: object  # the soft-labeled PairSet: training and held-out pairs


def model_labels(scorer):
    """Labeler that scores a whole pool with one model's pool_scorer.

    Returns label_fn(query, pool doc indices, query position) -> score
    array, the protocol of annotate_pools: one scorer call per pool.
    Labelers built on one scorer share its table of document rows.
    """
    return lambda query, pool, qpos: scorer([query.terms], [pool])[0]


def _split_holdout(pairs, fraction, seed):
    """(kept, held) PairSets: a seeded share `fraction` of the pairs held out."""
    if fraction <= 0.0 or len(pairs) < 2:
        return pairs, pairs.take([])
    n = len(pairs)
    n_held = max(1, int(round(fraction * n)))
    if n_held >= n:
        n_held = n - 1
    order = seeding.rng(seed, SPLIT_TAG).permutation(n)
    return pairs.take(order[n_held:]), pairs.take(order[:n_held])


def label_agreement(scorer, pairs):
    """Fraction of pairs whose label preference a model reproduces.

    scorer is the model's pool_scorer over pairs.index. Model ties count
    as disagreement (the model expresses no preference). One scorer call
    scores one pool per query, its pairs' doc1 then doc2 positions. None
    for no pairs.
    """
    if not len(pairs):
        return None
    order = np.argsort(pairs.query, kind="stable")
    queries, starts = np.unique(pairs.query[order], return_index=True)
    groups = np.split(order, starts[1:])
    pools = [np.concatenate([pairs.doc1[group], pairs.doc2[group]]) for group in groups]
    scores = scorer.rows([pairs.query_rows[q] for q in queries.tolist()], pools)
    s1, s2 = np.empty(len(pairs)), np.empty(len(pairs))
    for group, pool_scores in zip(groups, scores):
        s1[group], s2[group] = pool_scores[:group.size], pool_scores[group.size:]
    agree = (s1 != s2) & ((s1 > s2) == (pairs.s1 > pairs.s2))
    return int(agree.sum()) / len(pairs)


def mimic_train(label_fn, student_config, unlabeled, index, epochs, seed,
                pool_size, pairs_per_query, heldout_fraction=0.1,
                embedding_file=None):
    """Generic mimic pipeline: label pools, hold out pairs, train a student.

    label_fn(query, pool doc indices, query position) -> scores. Every
    sub-stage derives its randomness from `seed` plus a fixed tag, so two
    labelers that return identical scores produce byte-identical students.
    heldout_fraction must lie in [0, 1). The result's scorer is the trained
    student's pool_scorer over index, and fidelity its label_agreement on
    the held-out pairs.
    """
    if not 0.0 <= heldout_fraction < 1.0:
        raise ValueError(
            f"heldout_fraction must be in [0, 1), got {heldout_fraction}")
    pairs, report = annotate_pools(
        index, unlabeled, label_fn, pool_size, pairs_per_query,
        seeding.entropy(seed, ANNOTATE_TAG),
    )
    if not pairs:
        raise ValueError(
            "labeling produced no training pairs "
            f"({report.queries_skipped} of {report.queries_total} queries skipped, "
            f"{report.ties_discarded} tied pairs discarded)"
        )
    train_set, heldout = _split_holdout(pairs, heldout_fraction, seed)
    student = init_params(
        student_config, index.vocabulary, index,
        embedding_file=embedding_file, seed=seeding.entropy(seed, INIT_TAG),
    )
    result = train(student, student_config, train_set, epochs,
                   seed=seeding.entropy(seed, TRAIN_TAG))
    scorer = pool_scorer(student, index)
    return DistillResult(
        student=student,
        scorer=scorer,
        fidelity=label_agreement(scorer, heldout),
        annotation=report,
        epoch_losses=result.epoch_losses,
        train_count=len(train_set),
        heldout_count=len(heldout),
        pairs=pairs,
    )
