"""Command-line interface: index, annotate, train, distill, rank, evaluate.

Exit codes: 0 success, 1 pipeline or training failure, 2 usage or IO error
(bad flags, unknown config keys, missing files). The distillation and
private-aggregation subcommands take no relevance judgments; qrels enter
only through `evaluate` and the evaluation stage of `pipeline`.
"""

import argparse
import sys
from pathlib import Path

from .corpus import (
    annotate_queries,
    build_index,
    load_index,
    read_annotations,
    read_corpus,
    read_queries,
    save_index,
    write_annotations,
)
from .distill import distill, model_labels
from .evaluation import evaluate_run, format_metric_table, write_run
from .pipeline import (
    MODES,
    ConfigError,
    bm25_run,
    model_run,
    parse_config,
    read_model_configs,
    run_pipeline,
)
from .private import (
    PrivacyConfig,
    load_ensemble,
    pate_distill,
    read_ensemble_manifest,
    train_ensemble,
)
from .ranker import (
    STUDENT_CONFIG,
    TEACHER_CONFIG,
    TrainingDiverged,
    init_params,
    load_model,
    save_model,
    train,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _model_configs(args):
    if args.config is None:
        return TEACHER_CONFIG, STUDENT_CONFIG
    return read_model_configs(args.config)


def cmd_build_index(args):
    documents = read_corpus(args.corpus)
    index = build_index(documents)
    save_index(args.out, index)
    print(
        f"indexed {len(documents)} documents, {len(index.vocabulary)} terms"
        f" -> {args.out}"
    )


def cmd_annotate(args):
    index = load_index(args.index)
    queries = read_queries(args.queries)
    instances, report = annotate_queries(
        index, queries, args.pool_size, args.pairs_per_query,
        seed=args.seed, jobs=args.jobs,
    )
    write_annotations(args.out, instances)
    print(
        f"{report.pairs_emitted} pairs from {report.queries_annotated}"
        f"/{report.queries_total} queries"
        f" ({report.ties_discarded} ties discarded) -> {args.out}"
    )


def _load_training_pairs(index, queries_path, annotations_path):
    queries = read_queries(queries_path)
    instances, dropped = read_annotations(annotations_path, queries, index)
    if not instances:
        raise ValueError(f"{annotations_path}: no usable training pairs")
    return instances, dropped


def cmd_train_teacher(args):
    index = load_index(args.index)
    instances, dropped = _load_training_pairs(index, args.queries, args.annotations)
    config, _ = _model_configs(args)
    params = init_params(
        config, index.vocabulary, index,
        embedding_file=args.embeddings, seed=args.seed,
    )
    result = train(params, config, instances, args.epochs, seed=args.seed)
    save_model(args.out, params)
    final = result.epoch_losses[-1] if result.epoch_losses else float("nan")
    print(
        f"trained on {len(instances)} pairs ({dropped} rounded ties dropped),"
        f" final epoch loss {final:.6f} -> {args.out}"
    )


def cmd_distill(args):
    index = load_index(args.index)
    unlabeled = read_queries(args.queries)
    _, student_config = _model_configs(args)
    result = distill(
        args.teacher, student_config, unlabeled, index,
        args.epochs, args.seed,
        pool_size=args.pool_size, pairs_per_query=args.pairs_per_query,
        heldout_fraction=args.heldout_fraction, embedding_file=args.embeddings,
    )
    save_model(args.out, result.student)
    if args.annotations_out:
        write_annotations(args.annotations_out, result.instances)
    fidelity = "n/a" if result.fidelity is None else f"{result.fidelity:.4f}"
    print(
        f"student trained on {result.train_count} teacher-labeled pairs,"
        f" held-out agreement {fidelity} -> {args.out}"
    )


def cmd_pate(args):
    if args.ensemble:  # checked before anything is loaded or written
        saved, _ = read_ensemble_manifest(args.ensemble)
        for flag, given, kept in (("--n-partitions", args.n_partitions, saved.n_partitions),
                                  ("--noise-scale", args.noise_scale, saved.noise_scale)):
            if given is not None and given != kept:
                raise ConfigError(
                    f"{flag} {given} differs from the saved ensemble's {kept}"
                    f" ({args.ensemble}); omit it or train a new ensemble"
                )
    elif args.train_queries is None:
        raise ConfigError("--annotations requires --train-queries")
    index = load_index(args.index)
    unlabeled = read_queries(args.queries)
    teacher_config, student_config = _model_configs(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.ensemble:
        ensemble, _ = load_ensemble(args.ensemble)
    else:
        instances, _ = _load_training_pairs(
            index, args.train_queries, args.annotations
        )
        given = {"n_partitions": args.n_partitions, "noise_scale": args.noise_scale}
        privacy = PrivacyConfig(
            seed=args.seed, **{k: v for k, v in given.items() if v is not None}
        )
        ensemble, _, _ = train_ensemble(
            instances, teacher_config, index, args.teacher_epochs, privacy,
            partition_seed=args.seed, base_seed=args.seed,
            shard_dir=out / "shards", ensemble_dir=out / "ensemble",
            embedding_file=args.embeddings,
        )

    result = pate_distill(
        ensemble, student_config, unlabeled, index,
        args.student_epochs, args.seed,
        pool_size=args.pool_size, pairs_per_query=args.pairs_per_query,
        heldout_fraction=args.heldout_fraction, embedding_file=args.embeddings,
    )
    save_model(out / "student.ckpt", result.student)
    fidelity = "n/a" if result.fidelity is None else f"{result.fidelity:.4f}"
    print(
        f"{len(ensemble.teachers)} teachers (noise scale"
        f" {ensemble.config.noise_scale}), student trained on"
        f" {result.train_count} pairs, held-out agreement {fidelity} -> {out}"
    )


def cmd_rank(args):
    index = load_index(args.index)
    queries = read_queries(args.queries)
    if args.model:
        params = load_model(args.model)
        run = model_run(index, queries, model_labels(params, index),
                        args.pool_size, args.cutoff, args.jobs)
    else:
        run = bm25_run(index, queries, args.cutoff)
    write_run(args.out, run, tag=args.tag)
    print(f"ranked {len(run)} queries -> {args.out}")


def cmd_evaluate(args):
    report = evaluate_run(args.run, args.qrels, k=args.k,
                          skip_empty=args.skip_empty)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    name = args.name or Path(args.run).stem
    print(format_metric_table([(name, report)], k=args.k), end="")


def cmd_pipeline(args):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    config = parse_config(args.config, overrides)
    report = run_pipeline(config, args.mode, jobs=args.jobs)
    print(report["metrics_table"], end="")


def _add_seed(parser, default=0):
    parser.add_argument("--seed", type=int, default=default,
                        help="random seed (default %(default)s)")


def _add_jobs(parser):
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker threads; results do not depend on it")


def _add_pool_flags(parser):
    parser.add_argument("--pool-size", type=int, default=100,
                        help="candidate pool size per query (default %(default)s)")
    parser.add_argument("--pairs-per-query", type=int, default=20,
                        help="labeled pairs sampled per query (default %(default)s)")


def _add_model_source(parser):
    parser.add_argument("--config", default=None,
                        help="config file supplying teacher.*/student.* sizes")
    parser.add_argument("--embeddings", default=None,
                        help="optional word embedding text file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mimicrank",
        description="Weakly supervised neural ranking with teacher-student "
                    "distillation and privacy-preserving teacher ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("build-index",
                       help="build an inverted index from a JSONL corpus")
    p.add_argument("--corpus", required=True, help="JSONL file of {id, text}")
    p.add_argument("--out", required=True, help="index file to write")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("annotate",
                       help="label query/document pairs with BM25 scores")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True, help="TSV of query_id<TAB>text")
    p.add_argument("--out", required=True, help="annotation TSV to write")
    _add_pool_flags(p)
    _add_seed(p)
    _add_jobs(p)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("train-teacher",
                       help="train a ranker on annotated pairs")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True,
                   help="queries the annotations refer to")
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True, help="checkpoint file to write")
    p.add_argument("--epochs", type=int, default=10)
    _add_model_source(p)
    _add_seed(p)
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("distill",
                       help="train a student from a teacher checkpoint")
    p.add_argument("--index", required=True)
    p.add_argument("--teacher", required=True, help="teacher checkpoint")
    p.add_argument("--queries", required=True,
                   help="unlabeled queries the teacher annotates")
    p.add_argument("--out", required=True, help="student checkpoint to write")
    p.add_argument("--annotations-out", default=None,
                   help="optionally save the teacher-labeled pairs")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--heldout-fraction", type=float, default=0.1)
    _add_pool_flags(p)
    _add_model_source(p)
    _add_seed(p)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("pate",
                       help="train a teacher ensemble on disjoint shards and "
                            "distill a student from its noisy aggregate")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True,
                   help="unlabeled queries for the student")
    p.add_argument("--out", required=True, help="output directory")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--annotations", default=None,
                        help="training pairs to shard across teachers")
    source.add_argument("--ensemble", default=None,
                        help="reuse an already trained ensemble directory")
    p.add_argument("--train-queries", default=None,
                   help="queries the annotations refer to (with --annotations)")
    p.add_argument("--n-partitions", type=int, default=None,
                   help="teachers to train (default 3); with --ensemble, "
                        "must match the saved ensemble")
    p.add_argument("--noise-scale", type=float, default=None,
                   help="Laplace scale added to each teacher score (default "
                        "0.05); with --ensemble, must match the saved ensemble")
    p.add_argument("--teacher-epochs", type=int, default=10)
    p.add_argument("--student-epochs", type=int, default=10)
    p.add_argument("--heldout-fraction", type=float, default=0.1)
    _add_pool_flags(p)
    _add_model_source(p)
    _add_seed(p)
    p.set_defaults(func=cmd_pate)

    p = sub.add_parser("rank", help="write a ranked run file for queries")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True, help="run file to write")
    p.add_argument("--model", default=None,
                   help="model checkpoint; omitted means plain BM25")
    p.add_argument("--pool-size", type=int, default=100,
                   help="recall pool re-ranked by the model")
    p.add_argument("--cutoff", type=int, default=100,
                   help="ranks kept per query")
    p.add_argument("--tag", default="mimicrank", help="run tag column")
    _add_jobs(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("evaluate", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, default=20, help="cutoff for P@k and nDCG@k")
    p.add_argument("--skip-empty", action="store_true",
                   help="drop queries with no relevant documents from the means")
    p.add_argument("--name", default=None, help="system name in the table")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline",
                       help="run a full config-driven experiment")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's master seed")
    p.add_argument("--out", default=None, help="override the run directory")
    _add_jobs(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDiverged as exc:
        print(f"error: training diverged at epoch {exc.epoch}: {exc}",
              file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
