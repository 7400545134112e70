"""Benchmark workloads: generated inputs plus one pipeline mode each.

Every workload's inputs come from `toydata.synthetic_collection` with the
benchmark seed; they are written to files and the program only ever sees
those files (a corpus, three query splits, qrels and a flat config).
"""

from dataclasses import dataclass, field
from pathlib import Path

from mimicrank import toydata


@dataclass(frozen=True)
class Workload:
    name: str  # why each workload exists is in BENCHMARK.json and README.md
    mode: str
    collection: dict  # synthetic_collection keyword arguments (seed aside)
    config: dict = field(default_factory=dict)  # flat pipeline config keys


# Model shapes written as config overrides; anything not set here keeps the
# library default (TEACHER_CONFIG / STUDENT_CONFIG).
def _model(prefix, dim, layers, size, keep, lr, batch):
    return {
        f"{prefix}.embedding_dim": dim,
        f"{prefix}.hidden_layers": layers,
        f"{prefix}.hidden_size": size,
        f"{prefix}.dropout_keep": keep,
        f"{prefix}.learning_rate": lr,
        f"{prefix}.batch_size": batch,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-distill",
            mode="distill",
            collection=dict(n_docs=2000, n_topics=10, n_train=150,
                            n_unlabeled=80, n_eval=100,
                            doc_len_range=(20, 81),
                            topic_fraction=(0.15, 1.0)),
            config={
                **_model("teacher", 24, 1, 24, 1.0, 3e-3, 64),
                **_model("student", 48, 1, 48, 1.0, 3e-3, 64),
                "annotate.pool_size": 50,
                "annotate.pairs_per_query": 20,
                "epochs.teacher": 1,
                "epochs.student": 3,
                # a large held-out set keeps fidelity steady from seed to seed
                "distill.heldout_fraction": 0.3,
                "rank.pool_size": 100,
                "rank.cutoff": 100,
                "evaluate.k": 20,
            },
        ),
        Workload(
            name="paper-pate",
            mode="pate",
            collection=dict(n_docs=1000, n_topics=10, n_train=90,
                            n_unlabeled=24, n_eval=30),
            config={
                # the library's TEACHER_CONFIG and STUDENT_CONFIG, dropout on
                "privacy.n_partitions": 3,
                "privacy.noise_scale": 0.05,
                "annotate.pool_size": 30,
                "annotate.pairs_per_query": 50,
                "epochs.teacher": 1,
                "epochs.student": 2,
                "rank.pool_size": 20,
                "rank.cutoff": 20,
                "evaluate.k": 20,
            },
        ),
    )
}


def generate(workload, seed, directory):
    """Write the workload's collection under directory; returns its paths."""
    collection = toydata.synthetic_collection(seed=seed, **workload.collection)
    return toydata.write_collection(collection, directory)


def write_config(workload, seed, inputs, run_dir):
    """Write the flat pipeline config for one run and return its path.

    The pipeline's master seed is the benchmark seed too, so one seed fixes
    every input of the run. Input paths are absolute; the config hash the
    program records depends on their file names only.
    """
    run_dir = Path(run_dir)
    keys = {
        "corpus": inputs["corpus"],
        "queries.train": inputs["queries_train"],
        "queries.unlabeled": inputs["queries_unlabeled"],
        "queries.eval": inputs["queries_eval"],
        "qrels": inputs["qrels"],
        "seed": seed,
        "out": run_dir / "out",
        **workload.config,
    }
    path = run_dir / "run.conf"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()),
                    encoding="utf-8")
    return path
