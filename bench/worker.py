"""Child process of the benchmark: one workload's pipeline in a closed loop.

    python3 bench/worker.py --config run.conf --mode distill --seconds 55 \
        --budget 120 --trace 0 --spans spans.npz --result out.json

It imports the program from the checkout's `src/` and calls
`pipeline.run_pipeline` again and again, each time into a fresh directory,
while another call still fits in --seconds, and at least MIN_REPS times
while one still fits in --budget. The reference work of calibrate.py runs
before every call and after the last, as a `calibrate.run` span.
With --trace 0 only the stage-level calls that the end-to-end rates need
are wrapped; with --trace 1 every function of the per-layer list is. The
spans go to --spans and the process's own figures to --result. The
benchmark's parent process derives metrics and checks outputs; this
process only runs the program (and the reference work), so its peak RSS
is the program's.
"""

import argparse
import dataclasses
import gc
import inspect
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_REPS = 3  # pipeline runs per benchmark run, however short --seconds is


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


def around_annotate_pools(fn, args, kwargs, count):
    """Counts pool documents labeled and those that end up in a pair."""
    bound = _bind(fn, args, kwargs)
    label_fn = bound.arguments["label_fn"]
    pools = {}

    def counting_label_fn(query, pool, qpos):
        pools[qpos] = pool
        return label_fn(query, pool, qpos)

    bound.arguments["label_fn"] = counting_label_fn
    instances, report = result = fn(*bound.args, **bound.kwargs)
    index, queries = bound.arguments["index"], bound.arguments["queries"]
    in_pairs = {}
    for inst in instances:
        in_pairs.setdefault(inst.query_id, set()).update((inst.doc1_id, inst.doc2_id))
    used = sum(
        len(in_pairs.get(queries[qpos].query_id, ()) &
            {index.doc_ids[d] for d in pool})
        for qpos, pool in pools.items()
    )
    count("pool_docs", sum(len(p) for p in pools.values()))
    count("pool_docs_used", used)
    count("pairs_emitted", report.pairs_emitted)
    count("ties_discarded", report.ties_discarded)
    return result


def around_annotate_queries(fn, args, kwargs, count):
    result = fn(*args, **kwargs)
    count("pairs_emitted", result[1].pairs_emitted)
    return result


def around_train(fn, args, kwargs, count):
    bound = _bind(fn, args, kwargs)
    result = fn(*bound.args, **bound.kwargs)
    count("pair_epochs", len(bound.arguments["instances"]) * bound.arguments["epochs"])
    return result


def around_model_run(fn, args, kwargs, count):
    result = fn(*args, **kwargs)
    count("docs", sum(len(entries) for entries in result.values()))
    return result


def around_forward(fn, args, kwargs, count):
    result = fn(*args, **kwargs)
    x = args[1] if len(args) > 1 else kwargs["x"]
    count("rows", 1 if getattr(x, "ndim", 1) == 1 else x.shape[0])
    return result


def around_write_container(fn, args, kwargs, count):
    result = fn(*args, **kwargs)
    path = args[0] if args else kwargs["path"]
    count("bytes", os.path.getsize(path))
    return result


def targets(trace):
    """(span name, owner, attribute, around) for each wrapped function."""
    from mimicrank import (corpus, distill, evaluation, nn, pipeline, private,
                           ranker, serialize)

    stage = [
        ("pipeline.run_pipeline", pipeline, "run_pipeline", None),
        ("corpus.read_corpus", corpus, "read_corpus", None),
        ("corpus.save_index", corpus, "save_index", None),
        ("corpus.annotate_queries", corpus, "annotate_queries", around_annotate_queries),
        ("corpus.annotate_pools", corpus, "annotate_pools", around_annotate_pools),
        ("ranker.train", ranker, "train", around_train),
        ("pipeline.model_run", pipeline, "model_run", around_model_run),
    ]
    if not trace:
        return stage
    index_cls = corpus.InvertedIndex
    return stage + [
        ("corpus.build_index", corpus, "build_index", None),
        ("corpus.search", index_cls, "search", None),
        ("corpus.bm25_score", index_cls, "bm25_score", None),
        ("corpus.doc_terms", index_cls, "doc_terms", None),
        ("serialize.write_container", serialize, "write_container",
         around_write_container),
        ("serialize.read_container", serialize, "read_container", None),
        ("ranker.score", ranker, "score", None),
        ("ranker.term_index_counts", ranker, "term_index_counts", None),
        ("ranker.compute_loss_and_grads", ranker, "compute_loss_and_grads", None),
        ("nn.forward", nn, "forward", around_forward),
        ("nn.backward", nn, "backward", None),
        ("nn.optimizer_step", nn, "optimizer_step", None),
        ("distill.mimic_train", distill, "mimic_train", None),
        ("distill.label_agreement", distill, "label_agreement", None),
        ("private.train_teachers", private, "train_teachers", None),
        ("private.noisy_aggregate", private, "noisy_aggregate", None),
        ("private.teacher_mean", private, "teacher_mean", None),
        ("private.laplace_sample", private, "laplace_sample", None),
        ("private.pairwise_agreement", private, "pairwise_agreement", None),
        ("private.save_ensemble", private, "save_ensemble", None),
        ("private.load_ensemble", private, "load_ensemble", None),
        ("pipeline.bm25_run", pipeline, "bm25_run", None),
        ("evaluation.evaluate", evaluation, "evaluate", None),
        ("evaluation.write_run", evaluation, "write_run", None),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--mode", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds after which no further run may end")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--jobs", type=int, default=1,
                        help="pipeline jobs; the benchmark always runs 1")
    parser.add_argument("--spans", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    from mimicrank import pipeline

    tracer = Tracer()
    for name, owner, attr, around in targets(args.trace):
        tracer.install(name, owner, attr, around)

    config = pipeline.parse_config(args.config)
    work = Path(config.out)
    work.mkdir(parents=True, exist_ok=True)

    measure_machine = tracer.wrap("calibrate.run", calibrate.run)
    reps, error = 0, None
    started = time.perf_counter()
    durations = []  # seconds per pipeline run

    def another_fits(limit):
        return time.perf_counter() - started + statistics.median(durations) <= limit

    # stop before a run that would overrun --seconds, so a benchmark run
    # lasts about --seconds whatever the pipeline's speed; a slow program
    # still gets MIN_REPS runs if they fit in --budget
    while not durations or another_fits(args.budget) and (
            reps < MIN_REPS or another_fits(args.seconds)):
        run_start = time.perf_counter()
        measure_machine()
        rep_config = dataclasses.replace(config, out=work / f"rep{reps:02d}")
        try:
            pipeline.run_pipeline(rep_config, args.mode, jobs=args.jobs)
        except Exception:  # reported to the parent, which counts the failure
            error = traceback.format_exc()
            sys.stderr.write(error)
            break
        reps += 1
        gc.collect()
        durations.append(time.perf_counter() - run_start)
    measure_machine()

    tracer.uninstall()
    tracer.save(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({
            "reps": reps,
            "error": error,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "rep_dirs": [str(work / f"rep{i:02d}") for i in range(reps)],
        }, fh)


if __name__ == "__main__":
    main()
