"""Weak supervision end to end: BM25 labels train a neural ranker.

No human judgments are involved in training; BM25 plays the annotator.
The model embeds query and document as IDF-weighted bags of term vectors,
concatenates the two, and scores the pair with a small dense network. We
then compare BM25 and the trained model on held-out queries against the
synthetic collection's true topical judgments.

Run with: python3 demos/train_weak_ranker.py  (about a minute)
"""

from mimicrank.corpus import annotate_queries, build_index
from mimicrank.evaluation import evaluate, format_metric_table
from mimicrank.pipeline import bm25_run, model_run
from mimicrank.ranker import RankModelConfig, init_params, pool_scorer, train
from mimicrank.toydata import synthetic_collection

collection = synthetic_collection()
index = build_index(collection.documents)
print(f"corpus: {len(collection.documents)} documents, "
      f"{len(index.vocabulary)} terms")

# label pairs of pooled documents with their BM25 scores
instances, report = annotate_queries(
    index, collection.train_queries, pool_size=50, pairs_per_query=20, seed=7)
print(f"weak annotation: {report.pairs_emitted} pairs from "
      f"{report.queries_annotated} queries ({report.ties_discarded} ties dropped)")

config = RankModelConfig(embedding_dim=48, hidden_layers=2, hidden_size=48,
                         dropout_keep=1.0, learning_rate=3e-3, batch_size=64)
params = init_params(config, index.vocabulary, index, seed=7)
result = train(params, config, instances, epochs=20, seed=7)
print(f"hinge loss per epoch: {result.epoch_losses[0]:.4f} (first) "
      f"-> {result.epoch_losses[-1]:.4f} (last)")

runs = {
    "bm25": bm25_run(index, collection.eval_queries, cutoff=100),
    "weak teacher": model_run(index, collection.eval_queries,
                              pool_scorer(params, index), pool_size=100,
                              cutoff=100),
}
rows = [(name, evaluate(run, collection.qrels)) for name, run in runs.items()]
print()
print(format_metric_table(rows), end="")
