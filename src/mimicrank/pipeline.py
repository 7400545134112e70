"""Config-driven end-to-end runs: index, annotate, train, rank, evaluate.

Every run directory is reproducible from its manifest: the manifest records
the resolved configuration, its hash, and the seed plan (all component
seeds are fixed offsets from one master seed). No artifact embeds
timestamps or machine-local paths, so reruns are byte-identical.
"""

import dataclasses
import hashlib
import math
import platform
import shutil
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__, seeding
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
from .distill import distill, model_labels
from .evaluation import evaluate, format_metric_table, read_qrels, write_run
from .private import (
    PrivacyConfig,
    aggregate_scores,
    file_sha256,
    pairwise_agreement,
    pate_distill,
    teacher_mean,
    teacher_scores,
    train_ensemble,
)
from .ranker import (
    MODEL_VERSION,
    RankModelConfig,
    STUDENT_CONFIG,
    TEACHER_CONFIG,
    check_index_vocabulary,
    init_params,
    load_model,
    rank_by_scores,
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

EVAL_NOISE_TAG = 8  # per-eval-query noise streams, distinct from annotation's

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
                       ("rank.pool_size", 1), ("rank.cutoff", 1),
                       ("epochs.teacher", 0), ("epochs.student", 0)):
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
            marker = self.out_dir / "FAILED"
            marker.write_text(
                f"stage: {name}\nerror: {type(exc).__name__}: {exc}\n"
                f"completed: {', '.join(self.completed) or '(none)'}\n",
                encoding="utf-8",
            )
            raise
        self.completed.append(name)
        return result


def bm25_run(index, queries, cutoff):
    run = {}
    for q in queries:
        doc_idxs, scores = index.search(q.terms, cutoff)
        run[q.query_id] = [(index.doc_ids[d], s) for d, s in zip(doc_idxs, scores)]
    return run


def model_run(index, queries, label_fn, pool_size, cutoff):
    """BM25 recall pool re-ranked by label_fn(query, pool, query position).

    label_fn is the labeler protocol of annotate_pools.
    """
    run = {}
    for qpos, q in enumerate(queries):
        pool, _ = index.search(q.terms, pool_size)
        labels = label_fn(q, pool, qpos)
        scored = [(index.doc_ids[d], float(s)) for d, s in zip(pool, labels)]
        run[q.query_id] = rank_by_scores(scored, cutoff)
    return run


def _ensemble_run_labelers(ensemble, index):
    """{run name: label_fn} of the teacher_NN, aggregate and (at a noise
    scale above 0) aggregate_noisy runs of one query set and pool size.

    The labelers share one teacher_scores array per query position, built
    by whichever first reaches it, so each teacher scores each pool once.
    aggregate_noisy draws from seeding.rng(privacy seed, query position,
    EVAL_NOISE_TAG). A teacher vocabulary other than the index's raises
    ValueError here.
    """
    check_index_vocabulary(ensemble.teachers[0], index)
    arrays = {}

    def pool_scores(query, pool, qpos):
        if qpos not in arrays:
            arrays[qpos] = teacher_scores(ensemble, query.terms,
                                          [index.doc_rows(d) for d in pool])
        return arrays[qpos]

    labelers = {
        f"teacher_{i:02d}": lambda q, pool, qpos, i=i: pool_scores(q, pool, qpos)[:, i]
        for i in range(len(ensemble.teachers))
    }
    labelers["aggregate"] = lambda q, pool, qpos: aggregate_scores(
        pool_scores(q, pool, qpos), 0.0)
    privacy = ensemble.config
    if privacy.noise_scale > 0:
        labelers["aggregate_noisy"] = lambda q, pool, qpos: aggregate_scores(
            pool_scores(q, pool, qpos), privacy.noise_scale,
            seeding.rng(privacy.seed, qpos, EVAL_NOISE_TAG))
    return labelers


def _eval_pairs(index, queries, depth=6):
    """Deterministic pools for pairwise_agreement: each query's BM25 top
    `depth` documents as index rows, paired with their neighbours."""
    pools = []
    for q in queries:
        pool, _ = index.search(q.terms, depth)
        if len(pool) > 1:
            pools.append((q.terms, [index.doc_rows(d) for d in pool],
                          [(i, i + 1) for i in range(len(pool) - 1)]))
    return pools


def _metric_means(report):
    return {key: getattr(report, attr) for key, attr in _METRIC_KEYS}


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
        },
    }
    write_json(out / "manifest.json", manifest)

    stages = _StageRunner(out)
    report = {"mode": mode, "config_hash": manifest["config_hash"]}

    # index
    def build():
        documents = read_corpus(config.corpus)
        index = build_index(documents)
        save_index(out / "index.bin", index)
        return index

    index = stages.run("build-index", build)

    # a stage of its own, so that a malformed input file leaves a FAILED marker
    def read_inputs():
        unlabeled = None
        if mode != "weak":
            unlabeled = read_queries(config.queries_unlabeled)
        return (read_queries(config.queries_train), unlabeled,
                read_queries(config.queries_eval), read_qrels(config.qrels))

    train_queries, unlabeled, eval_queries, qrels = stages.run(
        "read-inputs", read_inputs)

    # teacher training pairs
    def annotate():
        if mode == "supervised":
            def grade_labels(query, pool, qpos):
                judged = qrels.get(query.query_id, {})
                return [float(judged.get(index.doc_ids[d], 0)) for d in pool]

            instances, ann_report = annotate_pools(
                index, train_queries, grade_labels, config.pool_size,
                config.pairs_per_query, plan["supervised_pairs"],
            )
        else:
            instances, ann_report = annotate_queries(
                index, train_queries, config.pool_size, config.pairs_per_query,
                seed=plan["weak_annotation"],
            )
        path = out / "annotations" / "train.tsv"
        write_annotations(path, instances)
        # the file is the artifact of record: reload it so training consumes
        # exactly what a later rerun would read
        loaded, dropped = read_annotations(path, train_queries, index)
        report["annotation"] = dataclasses.asdict(ann_report)
        report["annotation"]["rounded_ties_dropped"] = dropped
        if not loaded:
            raise ConfigError("annotation produced no usable training pairs")
        return loaded

    instances = stages.run("annotate", annotate)

    # teachers
    def train_single_teacher():
        # the order a one-way partition_data split gives, so that a pate run
        # with one teacher trains that teacher on the same pairs in the same
        # order
        order = seeding.rng(plan["partition"]).permutation(len(instances))
        params = init_params(
            config.teacher, index.vocabulary, index,
            embedding_file=config.embeddings, seed=plan["teacher_base"],
        )
        result = train(params, config.teacher, [instances[i] for i in order],
                       config.teacher_epochs, seed=plan["teacher_base"])
        save_model(out / "checkpoints" / "teacher.ckpt", params)
        report["teacher_epoch_losses"] = result.epoch_losses
        return load_model(out / "checkpoints" / "teacher.ckpt")

    def train_teacher_ensemble():
        privacy = PrivacyConfig(n_partitions=config.n_partitions,
                                noise_scale=config.noise_scale,
                                seed=plan["privacy_noise"])
        ens, report["shard_sizes"], report["shard_hashes"] = train_ensemble(
            instances, config.teacher, index, config.teacher_epochs, privacy,
            partition_seed=plan["partition"], base_seed=plan["teacher_base"],
            shard_dir=out / "shards", ensemble_dir=out / "checkpoints" / "ensemble",
            embedding_file=config.embeddings,
        )
        return ens

    if mode == "pate":
        ensemble = stages.run("train-teachers", train_teacher_ensemble)
        teacher = None
    else:
        ensemble = None
        teacher = stages.run("train-teacher", train_single_teacher)

    # student
    student = None
    if mode != "weak":

        def distill_student():
            if mode == "pate":
                result = pate_distill(
                    ensemble, config.student, unlabeled, index,
                    config.student_epochs, plan["distill"],
                    pool_size=config.pool_size,
                    pairs_per_query=config.pairs_per_query,
                    heldout_fraction=config.heldout_fraction,
                    embedding_file=config.embeddings,
                )
            else:
                result = distill(
                    teacher, config.student, unlabeled, index,
                    config.student_epochs, plan["distill"],
                    pool_size=config.pool_size,
                    pairs_per_query=config.pairs_per_query,
                    heldout_fraction=config.heldout_fraction,
                    embedding_file=config.embeddings,
                )
            write_annotations(out / "annotations" / "soft.tsv", result.instances)
            save_model(out / "checkpoints" / "student.ckpt", result.student)
            report["soft_annotation"] = dataclasses.asdict(result.annotation)
            report["fidelity"] = result.fidelity
            report["student_epoch_losses"] = result.epoch_losses
            report["student_pairs"] = {
                "train": result.train_count, "heldout": result.heldout_count,
            }
            return load_model(out / "checkpoints" / "student.ckpt")

        student = stages.run("distill", distill_student)

    # run files
    def write_runs():
        def rerank(label_fn):
            return model_run(index, eval_queries, label_fn,
                             config.rank_pool_size, config.rank_cutoff)

        runs = {"bm25": bm25_run(index, eval_queries, config.rank_cutoff)}
        if teacher is not None:
            runs["teacher"] = rerank(model_labels(teacher, index))
        if ensemble is not None:
            # one model_run per run file; noise-free, the aggregate sums
            # exactly like teacher_mean
            for name, label_fn in _ensemble_run_labelers(ensemble, index).items():
                runs[name] = rerank(label_fn)
            runs.setdefault("aggregate_noisy", runs["aggregate"])
        if student is not None:
            runs["student"] = rerank(model_labels(student, index))
        for name, run in runs.items():
            write_run(out / "runs" / f"{name}.run", run, tag=name)
        return runs

    runs = stages.run("rank", write_runs)

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
            report["agreement_nonnoisy_vs_mean"] = pairwise_agreement(
                lambda q, rows: aggregate_scores(teacher_scores(ensemble, q, rows), 0.0),
                lambda q, rows: teacher_mean(ensemble, q, rows),
                _eval_pairs(index, eval_queries),
            )
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
