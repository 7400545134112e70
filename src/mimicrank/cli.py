"""Command-line interface: index, annotate, train, distill, rank, evaluate.

Exit codes: 0 success, 1 pipeline or training failure, 2 usage or IO error
(bad flags, unknown config keys, missing files). The distillation and
private-aggregation subcommands take no relevance judgments; qrels enter
only through `evaluate` and the evaluation stage of `pipeline`. The stage
subcommands run the pipeline's stage functions with the component seeds
of `pipeline.seed_plan(--seed)`, so a chain of them at one seed writes
what `pipeline` writes at that seed.
"""

import argparse
import sys
from pathlib import Path

from .corpus import load_index, read_queries
from .evaluation import evaluate_run, format_metric_table, write_run
from .pipeline import (
    MODES,
    ConfigError,
    RunConfig,
    annotate_training_pairs,
    bm25_pools,
    bm25_rankings,
    bm25_run,
    distill_student,
    index_corpus,
    model_run,
    parse_config,
    read_model_configs,
    read_training_pairs,
    run_pipeline,
    seed_plan,
    train_single_teacher,
    train_teacher_ensemble,
)
from .private import load_ensemble, read_ensemble_manifest
from .ranker import STUDENT_CONFIG, TEACHER_CONFIG, TrainingDiverged, load_model, pool_scorer

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _model_configs(args):
    if args.config is None:
        return TEACHER_CONFIG, STUDENT_CONFIG
    return read_model_configs(args.config)


def _scorers(models, model_path, index, index_path):
    """A pool_scorer per model; a model of another index raises ConfigError naming both."""
    try:
        return [pool_scorer(params, index) for params in models]
    except ValueError as exc:
        raise ConfigError(f"{model_path} does not fit the index {index_path}: {exc}") from None


def cmd_build_index(args):
    index = index_corpus(args.corpus, args.out)
    print(f"indexed {index.doc_count} documents, {len(index.vocabulary)} terms"
          f" -> {args.out}")


def cmd_annotate(args):
    index = load_index(args.index)
    _, fields = annotate_training_pairs(
        index, read_queries(args.queries), args.pool_size, args.pairs_per_query,
        seed_plan(args.seed), args.out,
    )
    report = fields["annotation"]
    print(
        f"{report['pairs_emitted']} pairs from {report['queries_annotated']}"
        f"/{report['queries_total']} queries"
        f" ({report['ties_discarded']} ties discarded) -> {args.out}"
    )


def cmd_train_teacher(args):
    index = load_index(args.index)
    pairs, dropped = read_training_pairs(
        args.annotations, read_queries(args.queries), index)
    config, _ = _model_configs(args)
    _, fields = train_single_teacher(pairs, config, index, args.epochs,
                                     seed_plan(args.seed), args.out, args.embeddings)
    losses = fields["teacher_epoch_losses"]
    final = losses[-1] if losses else float("nan")
    print(
        f"trained on {len(pairs)} pairs ({dropped} rounded ties dropped),"
        f" final epoch loss {final:.6f} -> {args.out}"
    )


def cmd_distill(args):
    index = load_index(args.index)
    _, student_config = _model_configs(args)
    _, fields = distill_student(
        _scorers([load_model(args.teacher)], args.teacher, index, args.index), None,
        student_config,
        read_queries(args.queries), index, args.epochs, seed_plan(args.seed),
        args.out, args.annotations_out, pool_size=args.pool_size,
        pairs_per_query=args.pairs_per_query,
        heldout_fraction=args.heldout_fraction, embedding_file=args.embeddings,
    )
    fidelity = "n/a" if fields["fidelity"] is None else f"{fields['fidelity']:.4f}"
    print(
        f"student trained on {fields['student_pairs']['train']} teacher-labeled"
        f" pairs, held-out agreement {fidelity} -> {args.out}"
    )


def cmd_pate(args):
    plan = seed_plan(args.seed)
    # flags that a saved ensemble cannot take, and privacy settings, are
    # checked before anything is loaded or written
    if args.ensemble:
        for flag, given in (("--teacher-epochs", args.teacher_epochs),
                            ("--train-queries", args.train_queries)):
            if given is not None:
                raise ConfigError(f"{flag} applies only with --annotations; the saved"
                                  f" ensemble ({args.ensemble}) is already trained")
        saved, manifest = read_ensemble_manifest(args.ensemble)
        for flag, given, kept in (("--n-partitions", args.n_partitions,
                                   manifest["n_partitions"]),
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
        pairs, _ = read_training_pairs(
            args.annotations, read_queries(args.train_queries), index)
        epochs = RunConfig.teacher_epochs if args.teacher_epochs is None else args.teacher_epochs
        n_partitions = RunConfig.n_partitions if args.n_partitions is None else args.n_partitions
        noise_scale = RunConfig.noise_scale if args.noise_scale is None else args.noise_scale
        ensemble, _ = train_teacher_ensemble(
            pairs, teacher_config, index, epochs, plan, n_partitions, noise_scale,
            out / "shards", out / "ensemble", args.embeddings,
        )

    scorers = _scorers(ensemble.teachers, args.ensemble or out / "ensemble", index, args.index)
    _, fields = distill_student(
        scorers, ensemble.config, student_config,
        unlabeled, index, args.student_epochs, plan, out / "student.ckpt",
        pool_size=args.pool_size, pairs_per_query=args.pairs_per_query,
        heldout_fraction=args.heldout_fraction, embedding_file=args.embeddings,
    )
    fidelity = "n/a" if fields["fidelity"] is None else f"{fields['fidelity']:.4f}"
    print(
        f"{len(ensemble.teachers)} teachers (noise scale"
        f" {ensemble.config.noise_scale}), student trained on"
        f" {fields['student_pairs']['train']} pairs, held-out agreement {fidelity}"
        f" -> {out}"
    )


def cmd_rank(args):
    index = load_index(args.index)
    queries = read_queries(args.queries)
    if args.model:
        [scorer] = _scorers([load_model(args.model)], args.model, index, args.index)
        pools = bm25_pools(bm25_rankings(index, queries, args.pool_size), args.pool_size)
        run = model_run(index, queries, scorer, pools, args.cutoff)
    else:
        run = bm25_run(index, queries, bm25_rankings(index, queries, args.cutoff),
                       args.cutoff)
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
    report = run_pipeline(config, args.mode)
    print(report["metrics_table"], end="")


def _int_at_least(least):
    """argparse type: an integer no smaller than least."""
    def parse(raw):
        value = int(raw)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's message for a non-integer names the type
    return parse


def _fraction(raw):
    """argparse type: a held-out fraction in [0, 1)."""
    value = float(raw)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value}")
    return value


def _laplace_scale(raw):
    """argparse type: a Laplace noise scale, finite and non-negative."""
    value = float(raw)
    if not 0.0 <= value < float("inf"):  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {value}")
    return value


def _add_seed(parser):
    parser.add_argument("--seed", type=_int_at_least(0), default=0,
                        help="random seed (default %(default)s)")


def _add_pool_flags(parser):
    parser.add_argument("--pool-size", type=_int_at_least(2), default=100,
                        help="candidate pool size per query (default %(default)s)")
    parser.add_argument("--pairs-per-query", type=_int_at_least(1), default=20,
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
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("train-teacher",
                       help="train a ranker on annotated pairs")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True,
                   help="queries the annotations refer to")
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True, help="checkpoint file to write")
    p.add_argument("--epochs", type=_int_at_least(0), default=10)
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
    p.add_argument("--epochs", type=_int_at_least(0), default=10)
    p.add_argument("--heldout-fraction", type=_fraction, default=0.1)
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
    p.add_argument("--n-partitions", type=_int_at_least(1), default=None,
                   help="teachers to train (default 3); with --ensemble, "
                        "must match the saved ensemble")
    p.add_argument("--noise-scale", type=_laplace_scale, default=None,
                   help="Laplace scale added to each teacher score (default "
                        "0.05); with --ensemble, must match the saved ensemble")
    p.add_argument("--teacher-epochs", type=_int_at_least(0), default=None,
                   help="teacher training epochs (with --annotations; default 10)")
    p.add_argument("--student-epochs", type=_int_at_least(0), default=10)
    p.add_argument("--heldout-fraction", type=_fraction, default=0.1)
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
    p.add_argument("--pool-size", type=_int_at_least(1), default=100,
                   help="recall pool re-ranked by the model")
    p.add_argument("--cutoff", type=_int_at_least(1), default=100,
                   help="ranks kept per query")
    p.add_argument("--tag", default="mimicrank", help="run tag column")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("evaluate", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=_int_at_least(1), default=20,
                   help="cutoff for P@k and nDCG@k")
    p.add_argument("--skip-empty", action="store_true",
                   help="drop queries with no relevant documents from the means")
    p.add_argument("--name", default=None, help="system name in the table")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline",
                       help="run a full config-driven experiment")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=None,
                   help="override the config's master seed")
    p.add_argument("--out", default=None, help="override the run directory")
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
