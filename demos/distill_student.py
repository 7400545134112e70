"""Teacher-student distillation: a compact model mimics a weak teacher.

The teacher never shares its training data. It labels candidate pools for
a separate set of unlabeled queries, and the student trains only on those
scores. Fidelity is the sign agreement on held-out labeled pairs; the
metric table at the end shows how close the student lands to the teacher
on judged evaluation queries.

Run with: python3 demos/distill_student.py  (about a minute)
"""

from mimicrank.corpus import annotate_queries, build_index
from mimicrank.distill import mimic_train, model_labels
from mimicrank.evaluation import evaluate, format_metric_table
from mimicrank.pipeline import bm25_pools, bm25_rankings, bm25_run, model_run
from mimicrank.ranker import RankModelConfig, init_params, pool_scorer, train
from mimicrank.toydata import synthetic_collection

collection = synthetic_collection()
index = build_index(collection.documents)

# the teacher learns from BM25-annotated pairs over its own query log
instances, _ = annotate_queries(index, collection.train_queries,
                                pool_size=50, pairs_per_query=20, seed=7)
teacher_config = RankModelConfig(embedding_dim=24, hidden_layers=1,
                                 hidden_size=24, dropout_keep=1.0,
                                 learning_rate=3e-3, batch_size=64)
teacher = init_params(teacher_config, index.vocabulary, index, seed=7)
train(teacher, teacher_config, instances, epochs=15, seed=7)
print(f"teacher trained on {len(instances)} weakly labeled pairs")

# the student sees teacher scores over fresh queries, nothing else: the
# teacher's pool scorer is the labeler of its pools
student_config = RankModelConfig(embedding_dim=48, hidden_layers=1,
                                 hidden_size=48, dropout_keep=1.0,
                                 learning_rate=3e-3, batch_size=64)
result = mimic_train(model_labels(pool_scorer(teacher, index)), student_config,
                     collection.unlabeled_queries, index, epochs=15, seed=9,
                     pool_size=50, pairs_per_query=60)
print(f"student trained on {result.train_count} teacher-labeled pairs, "
      f"{result.heldout_count} held out")
print(f"held-out label agreement: {result.fidelity:.4f}")

# every run cuts one BM25 search per evaluation query
queries = collection.eval_queries
rankings = bm25_rankings(index, queries, depth=100)
pools = bm25_pools(rankings, pool_size=100)
runs = {
    "bm25": bm25_run(index, queries, rankings, cutoff=100),
    "teacher": model_run(index, queries, pool_scorer(teacher, index), pools, cutoff=100),
    "student": model_run(index, queries, pool_scorer(result.student, index), pools,
                         cutoff=100),
}
rows = [(name, evaluate(run, collection.qrels)) for name, run in runs.items()]
print()
print(format_metric_table(rows), end="")
