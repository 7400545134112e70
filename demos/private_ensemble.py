"""Private aggregation: disjoint teachers, noisy consensus, clean student.

Training pairs are split round-robin into disjoint shards, one teacher per
shard. Consumers only ever see the ensemble's aggregate score with Laplace
noise added per teacher, so no single teacher's behavior (and hence no
single shard's data) is exposed. With the noise turned off the aggregate
equals the plain teacher mean bitwise; with noise on, agreement with the
mean degrades as the scale grows. The student distilled from the noisy
aggregate never touches the shards at all.

Run with: python3 demos/private_ensemble.py  (seconds)
"""

import tempfile

import numpy as np

from mimicrank.corpus import annotate_queries, build_index
from mimicrank.distill import mimic_train
from mimicrank.private import (
    PrivacyConfig,
    ensemble_labels,
    load_ensemble,
    noisy_aggregate,
    pairwise_agreement,
    partition_data,
    teacher_mean,
    teacher_scorers,
    train_teachers,
)
from mimicrank.ranker import RankModelConfig
from mimicrank.toydata import mini_collection

collection = mini_collection()
index = build_index(collection.documents)
instances, _ = annotate_queries(index, collection.train_queries,
                                pool_size=30, pairs_per_query=15, seed=3)

shards = partition_data(instances, 3, seed=5)
print("shard sizes:", [len(s) for s in shards])

model_config = RankModelConfig(embedding_dim=12, hidden_layers=1,
                               hidden_size=16, dropout_keep=1.0,
                               learning_rate=5e-3, batch_size=64)
privacy = PrivacyConfig(noise_scale=0.2, seed=5)
# the teachers are trained one at a time, each saved as it is done
with tempfile.TemporaryDirectory() as directory:
    ensemble, _ = load_ensemble(train_teachers(
        shards, model_config, index, epochs=8, base_seed=5, privacy_config=privacy,
        directory=directory))

# pairs to probe agreement on: the annotated pairs, in the BM25 pools they
# were drawn from; every scorer scores a whole pool at once
scorers = teacher_scorers(ensemble, index)
terms, pools, pairs = [], [], []
for query in collection.train_queries:
    pool, _ = index.search(query.terms, 30)
    at = {index.doc_ids[d]: i for i, d in enumerate(pool)}
    terms.append(query.terms)
    pools.append(pool)
    pairs.append([(at[i.doc1_id], at[i.doc2_id])
                  for i in instances if i.query_id == query.query_id])
print("probe pairs:", sum(map(len, pairs)))

# the plain teacher mean of every pool, each teacher scoring all of them at once
means = teacher_mean(scorers, terms, pools)
exact = pairwise_agreement(
    [noisy_aggregate(scorers, q, pool, 0.0) for q, pool in zip(terms, pools)], means, pairs)
print(f"aggregate vs mean, noise 0.0: agreement {exact}")

rng = np.random.default_rng(11)
noisy = pairwise_agreement(
    [noisy_aggregate(scorers, q, pool, privacy.noise_scale, rng)
     for q, pool in zip(terms, pools)], means, pairs)
print(f"aggregate vs mean, noise {privacy.noise_scale}: agreement {noisy:.4f}")

# the student's pools are labeled by the noisy aggregate of fresh scorers
labels = ensemble_labels(teacher_scorers(ensemble, index), privacy)
result = mimic_train(labels, model_config, collection.unlabeled_queries,
                     index, epochs=8, seed=13, pool_size=30, pairs_per_query=20)
print(f"student trained on {result.train_count} noisy-labeled pairs, "
      f"held-out agreement {result.fidelity:.4f}")
