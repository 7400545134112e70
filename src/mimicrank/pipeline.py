"""Config-driven end-to-end runs: index, annotate, train, rank, evaluate.

Every run directory is reproducible from its manifest: the manifest records
the resolved configuration, its hash, the seed plan (all component seeds
are fixed offsets from one master seed), and the numpy and BLAS builds and
BLAS thread settings that fix the last bits of dense products. No artifact
embeds timestamps or machine-local paths, so reruns are byte-identical.
"""

import dataclasses
import hashlib
import math
import os
import platform
import shutil
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .corpus import (
    INDEX_VERSION,
    annotate_pools,
    annotate_queries,
    build_index,
    read_annotations,
    read_corpus,
    read_queries,
    save_index,
    write_annotations,
)
from .distill import mimic_train, model_labels
from .evaluation import evaluate, format_metric_table, read_qrels, write_run
from .private import (
    PrivacyConfig,
    aggregate_agreement,
    ensemble_labels,
    ensemble_run_scorers,
    file_sha256,
    load_ensemble,
    partition_data,
    teacher_scorers,
    train_teachers,
)
from .ranker import (
    MODEL_VERSION,
    RankModelConfig,
    STUDENT_CONFIG,
    TEACHER_CONFIG,
    init_params,
    load_model,
    model_arrays,
    pool_scorer,
    save_model,
    train,
)
from .serialize import atomic_write, write_json

MODES = ("weak", "supervised", "distill", "pate")

# every name run_pipeline writes into its output directory; a run removes
# them all first so that no artifact of an earlier run outlives it
_RUN_FILES = ("index.bin", "manifest.json", "metrics.txt", "metrics.json",
              "report.json", "FAILED")
_RUN_DIRS = ("annotations", "checkpoints", "runs", "shards")

# component seeds = master seed + fixed offset (recorded in the manifest)
SEED_OFFSETS = {
    "weak_annotation": 1000,
    "supervised_pairs": 1500,
    "partition": 2000,
    "teacher_base": 3000,
    "distill": 4000,
    "privacy_noise": 5000,
}

# (metrics.json key, MetricReport attribute) of each mean in a metrics row
_METRIC_KEYS = (("map", "mean_ap"), ("p_at_k", "mean_p_at_k"),
                ("ndcg_at_k", "mean_ndcg_at_k"))


class ConfigError(ValueError):
    pass


def seed_plan(master_seed):
    return {name: master_seed + off for name, off in SEED_OFFSETS.items()}


@dataclass
class RunConfig:
    corpus: Path
    out: Path
    seed: int
    queries_train: Path = None
    queries_unlabeled: Path = None
    queries_eval: Path = None
    qrels: Path = None
    embeddings: Path = None
    teacher: RankModelConfig = TEACHER_CONFIG
    student: RankModelConfig = STUDENT_CONFIG
    n_partitions: int = 3
    noise_scale: float = 0.05
    pool_size: int = 100
    pairs_per_query: int = 20
    teacher_epochs: int = 10
    student_epochs: int = 10
    rank_pool_size: int = 100
    rank_cutoff: int = 100
    heldout_fraction: float = 0.1
    eval_k: int = 20
    skip_empty: bool = False


_MODEL_FIELDS = {
    "embedding_dim": int,
    "hidden_layers": int,
    "hidden_size": int,
    "dropout_keep": float,
    "learning_rate": float,
    "batch_size": int,
}

_SCHEMA = {
    "corpus": ("corpus", "path"),
    "queries.train": ("queries_train", "path"),
    "queries.unlabeled": ("queries_unlabeled", "path"),
    "queries.eval": ("queries_eval", "path"),
    "qrels": ("qrels", "path"),
    "embeddings": ("embeddings", "path"),
    "out": ("out", "outpath"),
    "seed": ("seed", int),
    "privacy.n_partitions": ("n_partitions", int),
    "privacy.noise_scale": ("noise_scale", float),
    "annotate.pool_size": ("pool_size", int),
    "annotate.pairs_per_query": ("pairs_per_query", int),
    "epochs.teacher": ("teacher_epochs", int),
    "epochs.student": ("student_epochs", int),
    "rank.pool_size": ("rank_pool_size", int),
    "rank.cutoff": ("rank_cutoff", int),
    "distill.heldout_fraction": ("heldout_fraction", float),
    "evaluate.k": ("eval_k", int),
    "evaluate.skip_empty": ("skip_empty", bool),
}


def _parse_bool(raw, key):
    low = raw.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _read_flat(path):
    """Flat `dotted.key = value` lines; '#' starts a comment."""
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value
    return raw


def _resolve(raw, base):
    """Typed (kwargs, teacher_overrides, student_overrides) from raw strings."""
    kwargs = {}
    teacher_kwargs = {}
    student_kwargs = {}
    for key, value in raw.items():
        for prefix, sink in (("teacher.", teacher_kwargs), ("student.", student_kwargs)):
            if key.startswith(prefix):
                field = key[len(prefix):]
                if field not in _MODEL_FIELDS:
                    raise ConfigError(f"unknown config key {key!r}")
                sink[field] = _convert(_MODEL_FIELDS[field], value, key)
                break
        else:
            if key not in _SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            dest, kind = _SCHEMA[key]
            if kind == "path":
                kwargs[dest] = (base / value).resolve()
            elif kind == "outpath":
                kwargs[dest] = Path(value) if Path(value).is_absolute() else base / value
            elif kind is bool:
                kwargs[dest] = _parse_bool(value, key)
            else:
                kwargs[dest] = _convert(kind, value, key)
    return kwargs, teacher_kwargs, student_kwargs


def _convert(kind, raw, key):
    """int or float of a config value; NaN and infinities are rejected."""
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def parse_config(path, overrides=None):
    """Read a config file into a RunConfig; paths are relative to the file.

    overrides: optional {key: value} applied after the file (CLI flags).
    Unknown keys are rejected by name.
    """
    path = Path(path)
    raw = _read_flat(path)
    if overrides:
        raw.update({k: str(v) for k, v in overrides.items() if v is not None})
    kwargs, teacher_kwargs, student_kwargs = _resolve(raw, path.parent)
    if "corpus" not in kwargs:
        raise ConfigError("config must set corpus")
    if "seed" not in kwargs:
        raise ConfigError("config must set seed (or pass --seed)")
    if kwargs["seed"] < 0:
        raise ConfigError("seed must be non-negative")
    for key, least in (("annotate.pool_size", 2), ("annotate.pairs_per_query", 1),
                       ("rank.pool_size", 1), ("rank.cutoff", 1), ("evaluate.k", 1),
                       ("epochs.teacher", 0), ("epochs.student", 0),
                       ("privacy.n_partitions", 1), ("privacy.noise_scale", 0)):
        value = kwargs.get(_SCHEMA[key][0])
        if value is not None and value < least:
            raise ConfigError(f"{key}: must be at least {least}, got {value}")
    fraction = kwargs.get("heldout_fraction")
    if fraction is not None and not 0.0 <= fraction < 1.0:
        raise ConfigError(
            f"distill.heldout_fraction: must be in [0, 1), got {fraction}")
    if "out" not in kwargs:
        raise ConfigError("config must set out (or pass --out)")
    kwargs["teacher"] = dataclasses.replace(TEACHER_CONFIG, **teacher_kwargs)
    kwargs["student"] = dataclasses.replace(STUDENT_CONFIG, **student_kwargs)
    return RunConfig(**kwargs)


def read_model_configs(path):
    """teacher.*/student.* sections of a config file, other keys ignored.

    Every key is still validated against the full schema so typos fail here
    exactly as they would in a pipeline run.
    """
    path = Path(path)
    _, teacher_kwargs, student_kwargs = _resolve(_read_flat(path), path.parent)
    return (
        dataclasses.replace(TEACHER_CONFIG, **teacher_kwargs),
        dataclasses.replace(STUDENT_CONFIG, **student_kwargs),
    )


def config_hash(config):
    """Hash of everything that can influence results (the out path cannot)."""
    entries = []
    for field in dataclasses.fields(RunConfig):
        if field.name == "out":
            continue
        value = getattr(config, field.name)
        if isinstance(value, RankModelConfig):
            for sub, subval in sorted(dataclasses.asdict(value).items()):
                entries.append(f"{field.name}.{sub}={subval}")
        elif isinstance(value, Path):
            entries.append(f"{field.name}={value.name}")
        else:
            entries.append(f"{field.name}={value}")
    canon = "\n".join(sorted(entries)) + "\n"
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _require(config, mode, *fields):
    for name in fields:
        if getattr(config, name) is None:
            key = {v[0]: k for k, v in _SCHEMA.items()}[name]
            raise ConfigError(f"mode {mode!r} requires config key {key!r}")
    for name in ("corpus", "queries_train", "queries_unlabeled", "queries_eval",
                 "qrels", "embeddings"):
        value = getattr(config, name)
        if value is not None and not Path(value).exists():
            raise FileNotFoundError(f"config path {name}: {value} does not exist")


class _StageRunner:
    """Runs named stages; on failure drops a FAILED marker and re-raises."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.completed = []

    def run(self, name, fn):
        try:
            result = fn()
        except Exception as exc:
            with atomic_write(self.out_dir / "FAILED") as fh:
                fh.write(
                    f"stage: {name}\nerror: {type(exc).__name__}: {exc}\n"
                    f"completed: {', '.join(self.completed) or '(none)'}\n"
                )
            raise
        self.completed.append(name)
        return result


def index_corpus(corpus_path, path):
    """The inverted index of a corpus file, saved to path."""
    index = build_index(read_corpus(corpus_path))
    save_index(path, index)
    return index


def read_training_pairs(path, queries, index):
    """(pairs, rounded ties dropped) of an annotation file over queries.

    A file without a usable pair raises ConfigError.
    """
    pairs, dropped = read_annotations(path, queries, index)
    if not pairs:
        raise ConfigError(f"{path}: no usable training pairs")
    return pairs, dropped


def annotate_training_pairs(index, queries, pool_size, pairs_per_query, plan, path,
                            qrels=None):
    """The teachers' training pairs: each query's pool labeled by BM25 or,
    given qrels, by its judged grades (supervised mode).

    The pairs are written to path and read back, so that training consumes
    exactly what a later run would read. Returns (pairs, report
    fields).
    """
    if qrels is None:
        pairs, ann_report = annotate_queries(
            index, queries, pool_size, pairs_per_query, seed=plan["weak_annotation"])
    else:
        def grade_labels(query, pool, qpos):
            judged = qrels.get(query.query_id, {})
            return [float(judged.get(index.doc_ids[d], 0)) for d in pool]

        pairs, ann_report = annotate_pools(
            index, queries, grade_labels, pool_size, pairs_per_query,
            plan["supervised_pairs"])
    write_annotations(path, pairs)
    loaded, dropped = read_training_pairs(path, queries, index)
    return loaded, {"annotation": {**dataclasses.asdict(ann_report),
                                   "rounded_ties_dropped": dropped}}


def train_single_teacher(pairs, model_config, index, epochs, plan, path,
                         embedding_file=None):
    """One teacher, saved to path and loaded back; (teacher, report fields).

    It trains on the one shard of a one-way partition_data split, so that a
    pate run with one teacher trains that teacher on the same pairs in the
    same order.
    """
    [shard] = partition_data(pairs, 1, plan["partition"])
    params = init_params(model_config, index.vocabulary, index,
                         embedding_file=embedding_file, seed=plan["teacher_base"])
    losses = train(params, model_config, shard, epochs,
                   seed=plan["teacher_base"]).epoch_losses
    save_model(path, params)
    del params  # the trained copy goes before the saved one is read back
    return load_model(path), {"teacher_epoch_losses": losses}


def train_teacher_ensemble(pairs, model_config, index, epochs, plan, n_partitions,
                           noise_scale, shard_dir, ensemble_dir, embedding_file=None):
    """Shard the pairs n_partitions ways, train one teacher per shard, and
    save the ensemble at Laplace scale noise_scale.

    The plan seeds the shards (partition), each written to shard_dir as
    shard_NN.tsv and hashed, teacher i (teacher_base + i) and the noise
    (privacy_noise). train_teachers writes each teacher to ensemble_dir as
    it is trained and keeps none, so the ensemble is read back only once
    every trained copy is gone. Returns (the ensemble loaded back from
    ensemble_dir, so that callers consume the persisted artifact, report
    fields).
    """
    privacy = PrivacyConfig(noise_scale, seed=plan["privacy_noise"])
    shards = partition_data(pairs, n_partitions, plan["partition"])
    shard_dir = Path(shard_dir)
    shard_dir.mkdir(exist_ok=True)
    hashes = []
    for i, shard in enumerate(shards):
        shard_path = shard_dir / f"shard_{i:02d}.tsv"
        write_annotations(shard_path, shard)
        hashes.append(file_sha256(shard_path))
    train_teachers(shards, model_config, index, epochs, plan["teacher_base"], privacy,
                   ensemble_dir, embedding_file=embedding_file, shard_hashes=hashes)
    return load_ensemble(ensemble_dir)[0], {"shard_sizes": [len(s) for s in shards],
                                            "shard_hashes": hashes}


def _check_saved(path, saved, trained):
    """Raise ValueError naming path unless the model read back from it
    equals the trained one bit for bit: config, vocabulary, activations
    and every array."""
    def activations(model):
        return [layer.activation for layer in model.layers]

    for what, a, b in (("config", saved.config, trained.config),
                       ("vocabulary", saved.vocabulary, trained.vocabulary),
                       ("activations", activations(saved), activations(trained))):
        if a != b:
            raise ValueError(f"{path}: {what} read back differs from the trained model's")
    # equal activations give both models the same array names, in one order
    for (name, a), (_, b) in zip(model_arrays(saved), model_arrays(trained)):
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            raise ValueError(f"{path}: array {name} read back differs from the trained model's")


def distill_student(scorers, privacy, student_config, unlabeled, index, epochs, plan,
                    student_path, soft_path=None, **mimic_options):
    """A student trained on the teachers' labels of the unlabeled queries.

    scorers: one ranker.pool_scorer per teacher. With privacy None the one
    teacher's scores label each pool; with the ensemble's PrivacyConfig its
    noisy aggregate does. mimic_options (pool_size, pairs_per_query,
    heldout_fraction, embedding_file) go to distill.mimic_train. The
    labeled pairs are written to soft_path if one is given. The student is
    saved to student_path and read back, and a copy read back that is not
    the trained student bit for bit raises ValueError naming the file.
    Returns (the trained student's pool_scorer, which scored its held-out
    pairs, report fields): as the two copies are equal, its scores are
    those of a scorer over the persisted student.
    """
    label_fn = model_labels(scorers[0]) if privacy is None else ensemble_labels(scorers, privacy)
    result = mimic_train(label_fn, student_config, unlabeled, index, epochs,
                         plan["distill"], **mimic_options)
    if soft_path is not None:
        write_annotations(soft_path, result.pairs)
    save_model(student_path, result.student)
    _check_saved(student_path, load_model(student_path), result.student)
    return result.scorer, {
        "soft_annotation": dataclasses.asdict(result.annotation),
        "fidelity": result.fidelity,
        "student_epoch_losses": result.epoch_losses,
        "student_pairs": {"train": result.train_count, "heldout": result.heldout_count},
    }


def bm25_run(index, queries, cutoff):
    run = {}
    for q in queries:
        doc_idxs, scores = index.search(q.terms, cutoff)
        run[q.query_id] = [(index.doc_ids[d], s) for d, s in zip(doc_idxs, scores)]
    return run


def model_run(index, queries, scores, pool_size, cutoff):
    """BM25 recall pools re-ranked by one model's scores, cut at cutoff.

    Each query's pool is searched here, and all pools are scored in one
    call of scores(queries' terms, pools) -> one score array per pool, the
    protocol of ranker.pool_scorer. A pool is ordered by score descending,
    ties by ascending doc_id (index.id_rank); a cutoff below 1 raises
    ValueError.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be at least 1, got {cutoff}")
    pools = [np.asarray(index.search(q.terms, pool_size)[0], dtype=np.intp)
             for q in queries]
    run = {}
    pools_scores = scores([q.terms for q in queries], pools)
    for q, pool, pool_scores in zip(queries, pools, pools_scores):
        top = np.lexsort((index.id_rank[pool], -pool_scores))[:cutoff]
        run[q.query_id] = list(zip(map(index.doc_ids.__getitem__, pool[top].tolist()),
                                   pool_scores[top].tolist()))
    return run


def write_runs(index, queries, scorers, privacy, student, pool_size, cutoff, runs_dir):
    """Every run file of the queries, written to runs_dir; returns {name: run}.

    bm25 is the BM25 ranking cut at cutoff. Each model's run reranks the
    BM25 pools of pool_size documents (model_run): with privacy None,
    teacher is the one scorer's; with the ensemble's PrivacyConfig,
    teacher_NN are each teacher's and aggregate and aggregate_noisy the
    aggregate's without and with noise (private.ensemble_run_scorers). The
    student run is the student's pool_scorer's, given one.
    """
    def rerank(scores):
        return model_run(index, queries, scores, pool_size, cutoff)

    runs = {"bm25": bm25_run(index, queries, cutoff)}
    if privacy is None:
        runs["teacher"] = rerank(scorers[0])
    else:
        # one model_run per run file; noise-free, the aggregate sums
        # exactly like teacher_mean
        for name, scores in ensemble_run_scorers(scorers, privacy).items():
            runs[name] = rerank(scores)
        runs.setdefault("aggregate_noisy", runs["aggregate"])
    if student is not None:
        runs["student"] = rerank(student)
    for name, run in runs.items():
        write_run(Path(runs_dir) / f"{name}.run", run, tag=name)
    return runs


def _eval_pairs(index, queries, depth):
    """Deterministic pools for private.aggregate_agreement: (query terms,
    pools, pairs), each query's BM25 top `depth` documents as index positions,
    paired with their neighbours; queries with fewer than 2 hits are left out."""
    terms, pools, pairs = [], [], []
    for q in queries:
        pool, _ = index.search(q.terms, depth)
        if len(pool) > 1:
            terms.append(q.terms)
            pools.append(pool)
            pairs.append([(i, i + 1) for i in range(len(pool) - 1)])
    return terms, pools, pairs


def _metric_means(report):
    return {key: getattr(report, attr) for key, attr in _METRIC_KEYS}


_BLAS_THREAD_SETTINGS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_build():
    """numpy's BLAS as its build config names it, or None where not exposed."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def run_pipeline(config, mode, jobs=1):
    """Execute one pipeline mode into config.out; returns the report dict.

    Work runs on one thread. jobs must be 1: any other value raises
    ConfigError before anything is written. The keyword stays only while
    bench/worker.py passes it, and goes when the benchmark stops doing so.
    """
    if jobs != 1:
        raise ConfigError(f"jobs must be 1, got {jobs!r}")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    _require(config, mode, "queries_eval", "qrels", "queries_train")
    if mode != "weak":
        _require(config, mode, "queries_unlabeled")

    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in _RUN_FILES:
        (out / name).unlink(missing_ok=True)
    for name in _RUN_DIRS:
        if (out / name).exists():
            shutil.rmtree(out / name)
    for sub in ("annotations", "checkpoints", "runs"):
        (out / sub).mkdir()

    plan = seed_plan(config.seed)
    input_hashes = {
        name: file_sha256(value)
        for name, value in (
            ("corpus", config.corpus),
            ("queries.train", config.queries_train),
            ("queries.unlabeled", config.queries_unlabeled),
            ("queries.eval", config.queries_eval),
            ("qrels", config.qrels),
            ("embeddings", config.embeddings),
        )
        if value is not None
    }
    manifest = {
        "mode": mode,
        "seed": config.seed,
        "seed_plan": plan,
        "config_hash": config_hash(config),
        "input_hashes": input_hashes,
        "config": {
            k: (v.name if isinstance(v, Path) else v)
            for k, v in dataclasses.asdict(config).items()
            if k != "out"
        },
        "versions": {
            "package": __version__,
            "index_format": INDEX_VERSION,
            "model_format": MODEL_VERSION,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas_build(),
        },
        # OpenBLAS picks its kernels, and so the last bits of dense
        # products, by its thread count; nothing installed reports the count
        # in effect, so the settings that fix it are recorded as found
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_SETTINGS},
    }
    write_json(out / "manifest.json", manifest)

    stages = _StageRunner(out)
    report = {"mode": mode, "config_hash": manifest["config_hash"]}

    index = stages.run("build-index",
                       lambda: index_corpus(config.corpus, out / "index.bin"))

    # a stage of its own, so that a malformed input file leaves a FAILED marker
    def read_inputs():
        unlabeled = None
        if mode != "weak":
            unlabeled = read_queries(config.queries_unlabeled)
        return (read_queries(config.queries_train), unlabeled,
                read_queries(config.queries_eval), read_qrels(config.qrels))

    train_queries, unlabeled, eval_queries, qrels = stages.run(
        "read-inputs", read_inputs)

    pairs, fields = stages.run("annotate", lambda: annotate_training_pairs(
        index, train_queries, config.pool_size, config.pairs_per_query, plan,
        out / "annotations" / "train.tsv",
        qrels=qrels if mode == "supervised" else None))
    report.update(fields)

    # one scorer per loaded teacher, shared by mimic labeling, the rank
    # stage and the agreement check, and one for the student, which
    # distill_student builds over the trained copy for its held-out
    # agreement and hands to the rank stage once the saved copy has read
    # back equal: each scoring model represents each document at most
    # once in a run
    if mode == "pate":
        ensemble, fields = stages.run("train-teachers", lambda: train_teacher_ensemble(
            pairs, config.teacher, index, config.teacher_epochs, plan, config.n_partitions,
            config.noise_scale, out / "shards", out / "checkpoints" / "ensemble",
            config.embeddings))
        scorers = teacher_scorers(ensemble, index)
    else:
        ensemble = None
        teacher, fields = stages.run("train-teacher", lambda: train_single_teacher(
            pairs, config.teacher, index, config.teacher_epochs, plan,
            out / "checkpoints" / "teacher.ckpt", config.embeddings))
        scorers = [pool_scorer(teacher, index)]
    report.update(fields)
    privacy = None if ensemble is None else ensemble.config

    student = None  # the student's pool_scorer
    if mode != "weak":
        student, fields = stages.run("distill", lambda: distill_student(
            scorers, privacy, config.student, unlabeled, index, config.student_epochs, plan,
            out / "checkpoints" / "student.ckpt", out / "annotations" / "soft.tsv",
            pool_size=config.pool_size, pairs_per_query=config.pairs_per_query,
            heldout_fraction=config.heldout_fraction,
            embedding_file=config.embeddings))
        report.update(fields)

    runs = stages.run("rank", lambda: write_runs(
        index, eval_queries, scorers, privacy, student, config.rank_pool_size,
        config.rank_cutoff, out / "runs"))

    # metrics: the sole consumer of qrels on the distill and pate paths
    def evaluate_all():
        reports = {
            name: evaluate(run, qrels, k=config.eval_k, skip_empty=config.skip_empty)
            for name, run in runs.items()
        }
        metrics = {}
        if ensemble is not None:
            teachers = [reports[f"teacher_{i:02d}"]
                        for i in range(len(ensemble.teachers))]
            avg = SimpleNamespace(**{
                attr: sum(getattr(rep, attr) for rep in teachers) / len(teachers)
                for _, attr in _METRIC_KEYS
            })
            metrics["teachers_avg"] = _metric_means(avg)
            rows = [
                ("teachers avg", avg),
                ("aggregate non-noisy", reports["aggregate"]),
                ("aggregate noisy", reports["aggregate_noisy"]),
                ("student", reports["student"]),
            ]
            # exactness property: the noise-free aggregate must order pairs
            # exactly like the plain teacher mean
            report["agreement_nonnoisy_vs_mean"] = aggregate_agreement(
                scorers, *_eval_pairs(index, eval_queries, min(6, config.rank_pool_size)))
            report["noisy_vs_nonnoisy"] = {
                "map_delta": reports["aggregate_noisy"].mean_ap
                - reports["aggregate"].mean_ap,
                "ndcg_delta": reports["aggregate_noisy"].mean_ndcg_at_k
                - reports["aggregate"].mean_ndcg_at_k,
            }
        else:
            rows = [("bm25", reports["bm25"]), ("teacher", reports["teacher"])]
            if student is not None:
                rows.append(("student", reports["student"]))

        table = format_metric_table(rows, k=config.eval_k)
        with atomic_write(out / "metrics.txt") as fh:
            fh.write(table)
        for name, rep in reports.items():
            metrics[name] = {**_metric_means(rep), "query_count": rep.query_count,
                             "warnings": rep.warnings}
        write_json(out / "metrics.json", metrics)
        report["metrics"] = metrics
        write_json(out / "report.json", report)
        return table

    table = stages.run("evaluate", evaluate_all)
    report["metrics_table"] = table
    return report
