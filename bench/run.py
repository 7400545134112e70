#!/usr/bin/env python3
"""Pipeline benchmark: one workload at one seed, one JSON result line.

    python3 bench/run.py --workload desk-distill --seed 1 --seconds 55 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. The workload's inputs are generated from --seed (and
kept under bench/_work/inputs for later runs with the same seed), a child
process runs `pipeline.run_pipeline` in a closed loop for --seconds, and
this process then derives the metrics from the child's spans and checks
the child's outputs against computations of its own (see checks.py).

With --trace 0 the result carries the end-to-end metrics, with --trace 1
the per-layer ones. The last line of standard output is the JSON result;
progress and check failures go to standard error.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import metrics  # noqa: E402
from tracer import Spans  # noqa: E402

# One BLAS thread: on a shared two-core machine a second OpenBLAS thread
# spin-waits against any other load and a 500-d forward can take ten times
# as long, which would swamp every timing of paper-pate.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
DEADLINE_S = 170.0  # the whole benchmark run, child and checks included
CHECK_RESERVE_S = 40.0
SAVE_RESERVE_S = 5.0  # for the child to write its spans after its last run
SAMPLE = 300  # model-scored entries checked per artifact


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def prepare_inputs(workloads, workload, seed):
    """The workload's generated files, reused when this seed was made before."""
    directory = WORK / "inputs" / f"{workload.name}-{seed}"
    stamp = json.dumps({"seed": seed, "collection": workload.collection},
                       sort_keys=True)
    marker = directory / "complete"
    names = {
        "corpus": "corpus.jsonl", "queries_train": "queries_train.tsv",
        "queries_unlabeled": "queries_unlabeled.tsv",
        "queries_eval": "queries_eval.tsv", "qrels": "qrels.txt",
    }
    if not (marker.is_file() and marker.read_text(encoding="utf-8") == stamp):
        partial = directory.with_name(directory.name + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        shutil.rmtree(directory, ignore_errors=True)
        workloads.generate(workload, seed, partial)
        (partial / "complete").write_text(stamp, encoding="utf-8")
        partial.rename(directory)
    return {key: directory / name for key, name in names.items()}


def run_child(args, config, mode, run_dir, started):
    spans = run_dir / "spans.npz"
    result = run_dir / "child.json"
    limit = DEADLINE_S - CHECK_RESERVE_S - (time.perf_counter() - started)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--config", str(config), "--mode", mode, "--seconds", str(args.seconds),
        "--budget", str(limit - SAVE_RESERVE_S), "--trace", str(args.trace),
        "--spans", str(spans), "--result", str(result),
    ]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=max(limit, 1.0),
                              env={**os.environ, **CHILD_ENV})
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        log(f"child exceeded {limit:.0f} s")
        return None, None
    if proc.returncode != 0 or not result.is_file():
        log(f"child exited with {proc.returncode}")
        return None, None
    return json.loads(result.read_text(encoding="utf-8")), spans


def output_checks(workload, inputs, rep_dirs, seed_label):
    """(name, problems) for every output check of this workload."""
    from mimicrank.corpus import load_index

    cfg = workload.config
    coll = checks.Collection(
        inputs["corpus"],
        [inputs["queries_train"], inputs["queries_unlabeled"], inputs["queries_eval"]],
        inputs["qrels"],
    )

    def qids(key):
        with open(inputs[key], encoding="utf-8") as fh:
            return [line.split("\t", 1)[0] for line in fh if line.strip()]

    train_q, eval_q = qids("queries_train"), qids("queries_eval")
    out = Path(rep_dirs[0])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    reported = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    ckpt = out / "checkpoints"
    if workload.mode == "pate":
        teachers = [checks.Checkpoint(ckpt / "ensemble" / f"teacher_{i:02d}.ckpt")
                    for i in range(cfg["privacy.n_partitions"])]
        models = {f"teacher_{i:02d}": [t] for i, t in enumerate(teachers)}
        models["aggregate"] = teachers
    else:
        teachers = [checks.Checkpoint(ckpt / "teacher.ckpt")]
        models = {"teacher": teachers}
    models["student"] = [checks.Checkpoint(ckpt / "student.ckpt")]
    runs = {name: checks.read_run(out / "runs" / f"{name}.run")
            for name in ["bm25", *models,
                         *(["aggregate_noisy"] if workload.mode == "pate" else [])]}
    soft = checks.read_pairs(out / "annotations" / "soft.tsv")
    soft_entries = [(q, d, s) for q, d1, d2, s1, s2 in soft for d, s in ((d1, s1), (d2, s2))]
    k = cfg["evaluate.k"]
    depth = max(cfg["annotate.pool_size"], cfg["rank.pool_size"])

    ops = []
    ops.append(("retrieval", lambda: checks.check_retrieval(
        coll, load_index(out / "index.bin").search,
        checks.every(train_q, 8) + checks.every(eval_q, 8), depth, runs["bm25"])))
    ops.append(("annotations", lambda: checks.check_annotations(
        coll, checks.read_pairs(out / "annotations" / "train.tsv"),
        cfg["annotate.pool_size"], cfg["annotate.pairs_per_query"],
        report["annotation"]["rounded_ties_dropped"])))
    for name, group in models.items():
        entries = [(q, d, s) for q, rows in runs[name].items() for d, _, s in rows]
        ops.append((f"scores:{name}", lambda g=group, e=entries: checks.check_scores(
            coll, g, checks.every(e, SAMPLE))))
    if workload.mode == "pate":
        noisy = [(q, d, s) for q, rows in runs["aggregate_noisy"].items()
                 for d, _, s in rows]
        ops.append(("noise", lambda: checks.check_noise(
            coll, teachers, soft_entries + noisy, cfg["privacy.noise_scale"])))
        ops.append(("exact-aggregate", lambda: [] if report.get(
            "agreement_nonnoisy_vs_mean") == 1.0 else [
            f"agreement_nonnoisy_vs_mean = {report.get('agreement_nonnoisy_vs_mean')}"]))
    else:
        ops.append(("scores:soft", lambda: checks.check_scores(
            coll, teachers, checks.every(soft_entries, SAMPLE))))
    for name, run in runs.items():
        pool = cfg["rank.cutoff"] if name == "bm25" else cfg["rank.pool_size"]
        ops.append((f"runfile:{name}", lambda r=run, p=pool: checks.check_run(
            coll, r, eval_q, cfg["rank.cutoff"], p)))
        ops.append((f"metrics:{name}", lambda r=run, n=name: checks.check_metrics(
            r, coll.qrels, reported[n], k)))
    if workload.mode == "pate":
        def teachers_avg():
            rows = [checks.mean_metrics(runs[f"teacher_{i:02d}"], coll.qrels, k)
                    for i in range(len(teachers))]
            avg = {key: sum(r[key] for r in rows) / len(rows)
                   for key in ("map", "p_at_k", "ndcg_at_k")}
            return [f"teachers_avg {key}: {reported['teachers_avg'][key]} vs {value}"
                    for key, value in avg.items()
                    if abs(reported["teachers_avg"][key] - value) > checks.EXACT]
        ops.append(("metrics:teachers_avg", teachers_avg))
    ops.append(("fidelity", lambda: [] if (report.get("fidelity") or 0.0) > 0.5
                else [f"fidelity {report.get('fidelity')} at or below chance"]))
    ops.append(("determinism", lambda: checks.check_determinism(rep_dirs)))

    results = []
    for name, op in ops:
        try:
            problems = op()
        except Exception as exc:  # a check that cannot run has failed
            problems = [f"{type(exc).__name__}: {exc}"]
        for line in problems:
            log(f"check {name} [{seed_label}]: {line}")
        results.append((name, problems))
    return results


def main(argv=None):
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "mimicrank" / "pipeline.py").is_file():
        log(f"error: no program at {SRC}; run inside a checkout of the repository")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}")
        return 2
    if args.seed < 0 or args.seconds <= 0:
        log("error: --seed must be >= 0 and --seconds > 0")
        return 2
    workload = workloads.WORKLOADS[args.workload]

    inputs = prepare_inputs(workloads, workload, args.seed)
    # only the latest run of each workload is kept, for inspection
    run_dir = WORK / "runs" / f"{workload.name}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = workloads.write_config(workload, args.seed, inputs, run_dir)
    log(f"{workload.name} seed {args.seed}: inputs ready after "
        f"{time.perf_counter() - started:.1f} s")

    child, spans_path = run_child(args, config, workload.mode, run_dir, started)
    attempted, failed = 0, 0
    values = {}
    correct = False
    if child is not None:
        attempted += child["reps"] + (1 if child["error"] else 0)
        failed += 1 if child["error"] else 0
        spans = Spans.load(spans_path)
        roots = metrics.run_roots(spans)[:child["reps"]]
        try:
            if args.trace:
                values = metrics.medians([metrics.layer_metrics(spans, r) for r in roots])
                log("traced run_s median: "
                    f"{metrics.end_to_end(spans, roots)['run_s']:.4f}")
            else:
                values = metrics.end_to_end(spans, roots)
                values["peak_rss_mib"] = child["peak_rss_kib"] / 1024.0
        except (metrics.StageMissing, statistics.StatisticsError) as exc:
            log(f"no metrics: {exc}")
            failed += 1
            attempted += 1
            values = {}
        if child["reps"]:
            out = Path(child["rep_dirs"][0])
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            if not args.trace:
                values["student_map"] = report["metrics"]["student"]["map"]
                values["fidelity"] = report["fidelity"]
            results = output_checks(workload, inputs, child["rep_dirs"],
                                    f"{workload.name} seed {args.seed}")
            attempted += len(results)
            failed += sum(1 for _, problems in results if problems)
            correct = all(not problems for _, problems in results)
            log(f"{len(results)} output checks, "
                f"{sum(1 for _, p in results if p)} failed, "
                f"{child['reps']} pipeline runs, "
                f"{time.perf_counter() - started:.1f} s in all")

    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics.as_output(
            values, "per_layer" if args.trace else "end_to_end"),
    }))
    # a result with failures is still a result; only a run that measured
    # nothing exits non-zero
    return 0 if values else 1


if __name__ == "__main__":
    sys.exit(main())
