"""Config parsing, pipeline orchestration, and command-line behavior."""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mimicrank
from mimicrank import cli, distill, pipeline, private, ranker, seeding
from mimicrank.cli import build_parser, main
from mimicrank.corpus import load_index, read_queries
from mimicrank.distill import model_labels
from mimicrank.evaluation import evaluate, format_metric_table, write_run
from mimicrank.pipeline import (
    ConfigError,
    RunConfig,
    SEED_OFFSETS,
    bm25_pools,
    bm25_rankings,
    config_hash,
    model_run,
    parse_config,
    read_model_configs,
    run_pipeline,
    seed_plan,
)
from mimicrank.private import (
    EVAL_NOISE_TAG,
    NOISE_TAG,
    PrivacyConfig,
    ensemble_run_scorers,
    load_ensemble,
    noisy_aggregate,
    save_ensemble,
    teacher_scorers,
)
from mimicrank.ranker import (
    RankModelConfig,
    STUDENT_CONFIG,
    TEACHER_CONFIG,
    init_params,
    load_model,
    pool_scorer,
    save_model,
)
from mimicrank.toydata import mini_collection, write_collection

TINY_TEACHER = RankModelConfig(embedding_dim=8, hidden_layers=1, hidden_size=16,
                               dropout_keep=1.0, learning_rate=5e-3, batch_size=64)
TINY_STUDENT = RankModelConfig(embedding_dim=6, hidden_layers=1, hidden_size=8,
                               dropout_keep=1.0, learning_rate=5e-3, batch_size=64)

CONFIG_TEMPLATE = """\
# mini experiment
corpus = corpus.jsonl
queries.train = queries_train.tsv
queries.unlabeled = queries_unlabeled.tsv
queries.eval = queries_eval.tsv
qrels = qrels.txt
seed = 11
out = run
teacher.embedding_dim = 8
teacher.hidden_layers = 1
teacher.hidden_size = 16
teacher.dropout_keep = 1.0
teacher.learning_rate = 5e-3
teacher.batch_size = 64
student.embedding_dim = 6
student.hidden_layers = 1
student.hidden_size = 8
student.dropout_keep = 1.0
student.learning_rate = 5e-3
student.batch_size = 64
annotate.pool_size = 20
annotate.pairs_per_query = 10
epochs.teacher = 3
epochs.student = 3
rank.pool_size = 30
rank.cutoff = 30
privacy.n_partitions = 3
privacy.noise_scale = 0.05
evaluate.k = 20
"""


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    base = tmp_path_factory.mktemp("cliws")
    write_collection(mini_collection(), base)
    (base / "run.conf").write_text(CONFIG_TEMPLATE, encoding="utf-8")
    return base


def base_config(workspace, out, **kwargs):
    defaults = dict(
        corpus=workspace / "corpus.jsonl",
        queries_train=workspace / "queries_train.tsv",
        queries_unlabeled=workspace / "queries_unlabeled.tsv",
        queries_eval=workspace / "queries_eval.tsv",
        qrels=workspace / "qrels.txt",
        out=out, seed=11, teacher=TINY_TEACHER, student=TINY_STUDENT,
        pool_size=20, pairs_per_query=10, teacher_epochs=3, student_epochs=3,
        rank_pool_size=30, rank_cutoff=30, n_partitions=3, noise_scale=0.05,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


# ---------------------------------------------------------------------------
# Config file parsing


def test_parse_config_reads_types_and_resolves_paths(workspace):
    config = parse_config(workspace / "run.conf")
    assert config.corpus == (workspace / "corpus.jsonl").resolve()
    assert config.qrels == (workspace / "qrels.txt").resolve()
    assert config.out == workspace / "run"
    assert config.seed == 11
    assert config.teacher.hidden_size == 16
    assert config.teacher.learning_rate == pytest.approx(5e-3)
    assert config.student.embedding_dim == 6
    assert config.pool_size == 20
    assert config.teacher_epochs == 3
    assert config.noise_scale == pytest.approx(0.05)
    # untouched fields keep their defaults
    assert config.heldout_fraction == pytest.approx(0.1)
    assert config.skip_empty is False


def test_parse_config_defaults_match_published_architectures(tmp_path):
    (tmp_path / "c.conf").write_text("corpus = x\nseed = 0\nout = o\n")
    config = parse_config(tmp_path / "c.conf")
    assert config.teacher == TEACHER_CONFIG
    assert config.student == STUDENT_CONFIG


def test_every_model_setting_has_a_config_key():
    # a RankModelConfig field that no teacher.*/student.* key reaches is a
    # knob that nothing can set
    assert pipeline._MODEL_FIELDS == {field.name: field.type
                                      for field in dataclasses.fields(RankModelConfig)}


@pytest.mark.parametrize("line,fragment", [
    ("bogus.key = 1", "unknown config key"),
    ("teacher.bogus = 1", "unknown config key"),
    ("students.embedding_dim = 4", "unknown config key"),
    ("seed = eleven", "seed"),
    ("evaluate.skip_empty = maybe", "boolean"),
    ("just a line without equals", "expected key = value"),
    ("privacy.noise_scale = nan", "privacy.noise_scale: expected a finite number"),
    ("privacy.noise_scale = inf", "privacy.noise_scale: expected a finite number"),
    ("teacher.learning_rate = nan", "teacher.learning_rate: expected a finite number"),
    ("distill.heldout_fraction = -inf", "heldout_fraction: expected a finite number"),
    ("distill.heldout_fraction = 1.5", r"distill.heldout_fraction: must be in \[0, 1\)"),
    ("distill.heldout_fraction = 1", r"distill.heldout_fraction: must be in \[0, 1\)"),
    ("distill.heldout_fraction = -0.1", r"distill.heldout_fraction: must be in \[0, 1\)"),
    ("epochs.student = -2", "epochs.student: must be at least 0, got -2"),
    ("epochs.teacher = -1", "epochs.teacher: must be at least 0, got -1"),
    ("annotate.pairs_per_query = 0", "annotate.pairs_per_query: must be at least 1, got 0"),
    ("evaluate.k = 0", "evaluate.k: must be at least 1, got 0"),
    ("privacy.n_partitions = 0", "privacy.n_partitions: must be at least 1, got 0"),
    ("privacy.noise_scale = -1", r"privacy.noise_scale: must be at least 0, got -1.0"),
])
def test_parse_config_rejects_bad_input(tmp_path, line, fragment):
    path = tmp_path / "bad.conf"
    path.write_text(f"corpus = x\nseed = 0\nout = o\n{line}\n")
    with pytest.raises(ConfigError, match=fragment):
        parse_config(path)


def test_parse_config_rejects_duplicate_key_with_line_number(tmp_path):
    path = tmp_path / "dup.conf"
    path.write_text("corpus = x\nseed = 0\nout = o\nseed = 1\n")
    with pytest.raises(ConfigError, match=r"dup\.conf:4"):
        parse_config(path)


@pytest.mark.parametrize("missing", ["corpus", "seed", "out"])
def test_parse_config_requires_core_keys(tmp_path, missing):
    lines = {"corpus": "corpus = x", "seed": "seed = 0", "out": "out = o"}
    del lines[missing]
    path = tmp_path / "partial.conf"
    path.write_text("\n".join(lines.values()) + "\n")
    with pytest.raises(ConfigError, match=missing):
        parse_config(path)


def test_parse_config_overrides_beat_file_values(workspace):
    config = parse_config(workspace / "run.conf", {"seed": 99, "out": "elsewhere"})
    assert config.seed == 99
    assert config.out == workspace / "elsewhere"


def test_read_model_configs_ignores_pipeline_keys_but_validates_them(workspace,
                                                                     tmp_path):
    teacher, student = read_model_configs(workspace / "run.conf")
    assert teacher == TINY_TEACHER
    assert student == TINY_STUDENT
    bad = tmp_path / "bad.conf"
    bad.write_text("teacher.hidden_size = 16\ntypo.key = 3\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        read_model_configs(bad)


def test_config_hash_ignores_out_but_not_parameters(workspace):
    a = base_config(workspace, workspace / "a")
    b = base_config(workspace, workspace / "b")
    c = base_config(workspace, workspace / "a", seed=12)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_seed_plan_uses_fixed_offsets():
    plan = seed_plan(7)
    assert plan == {name: 7 + off for name, off in SEED_OFFSETS.items()}
    assert len(set(plan.values())) == len(plan)


# ---------------------------------------------------------------------------
# Pipeline modes


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_weak_mode_artifacts_and_manifest(workspace, tmp_path):
    out = tmp_path / "weak"
    report = run_pipeline(base_config(workspace, out), "weak")
    for rel in ("manifest.json", "index.bin", "annotations/train.tsv",
                "checkpoints/teacher.ckpt", "runs/bm25.run", "runs/teacher.run",
                "metrics.txt", "metrics.json", "report.json"):
        assert (out / rel).is_file(), rel
    assert not (out / "FAILED").exists()
    manifest = read_json(out / "manifest.json")
    assert manifest["mode"] == "weak"
    assert manifest["seed"] == 11
    assert manifest["seed_plan"] == seed_plan(11)
    assert manifest["config_hash"] == report["config_hash"]
    assert set(manifest["input_hashes"]) >= {"corpus", "qrels", "queries.eval"}
    table = (out / "metrics.txt").read_text()
    assert [row.split()[0] for row in table.splitlines()[2:]] == ["bm25", "teacher"]
    metrics = read_json(out / "metrics.json")
    assert 0.0 <= metrics["teacher"]["map"] <= 1.0
    assert metrics["bm25"]["query_count"] == 15


def test_supervised_mode_trains_teacher_on_judged_grades(workspace, tmp_path):
    out = tmp_path / "supervised"
    report = run_pipeline(base_config(workspace, out), "supervised")
    table = (out / "metrics.txt").read_text()
    assert [row.split()[0] for row in table.splitlines()[2:]] == [
        "bm25", "teacher", "student"]
    assert report["fidelity"] is not None
    assert (out / "checkpoints" / "student.ckpt").is_file()


def test_pipeline_rerun_is_byte_identical(workspace, tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    run_pipeline(base_config(workspace, first), "distill")
    run_pipeline(base_config(workspace, second), "distill")
    for rel in ("manifest.json", "index.bin", "annotations/train.tsv",
                "annotations/soft.tsv", "checkpoints/teacher.ckpt",
                "checkpoints/student.ckpt", "runs/bm25.run", "runs/teacher.run",
                "runs/student.run", "metrics.txt", "metrics.json"):
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel


def test_pipeline_rejects_jobs_other_than_one(workspace, tmp_path):
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match="jobs must be 1, got 2"):
        run_pipeline(base_config(workspace, out), "weak", jobs=2)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["annotate", "--index", "i", "--queries", "q", "--out", "o"],
    ["rank", "--index", "i", "--queries", "q", "--out", "o"],
    ["pipeline", "--mode", "weak", "--config", "c"],
], ids=lambda argv: argv[0])
def test_cli_has_no_jobs_flag(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv + ["--jobs", "1"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --jobs 1" in capsys.readouterr().err


def test_pate_mode_writes_four_row_report_and_shards(workspace, tmp_path):
    out = tmp_path / "pate"
    report = run_pipeline(base_config(workspace, out), "pate")
    table = (out / "metrics.txt").read_text()
    assert [" ".join(row.split()[:-3]) for row in table.splitlines()[2:]] == [
        "teachers avg", "aggregate non-noisy", "aggregate noisy", "student"]
    assert report["agreement_nonnoisy_vs_mean"] == 1.0
    assert report["shard_sizes"][0] - report["shard_sizes"][-1] <= 1
    for i in range(3):
        assert (out / "shards" / f"shard_{i:02d}.tsv").is_file()
        assert (out / "checkpoints" / "ensemble" / f"teacher_{i:02d}.ckpt").is_file()
        assert (out / "runs" / f"teacher_{i:02d}.run").is_file()
    assert (out / "runs" / "aggregate.run").is_file()
    assert (out / "runs" / "aggregate_noisy.run").is_file()
    for run_file in (out / "runs").glob("*.run"):
        assert main(["evaluate", "--run", str(run_file),
                     "--qrels", str(workspace / "qrels.txt")]) == 0, run_file
    saved = read_json(out / "report.json")
    assert saved["agreement_nonnoisy_vs_mean"] == 1.0
    assert "noisy_vs_nonnoisy" in saved
    ensemble_manifest = read_json(out / "checkpoints" / "ensemble" / "manifest.json")
    assert ensemble_manifest["shard_hashes"] == report["shard_hashes"]


def test_evaluate_runs_writes_the_metric_files_and_returns_their_fields(tmp_path):
    qrels = {"q1": {"d1": 1, "d2": 0}, "q2": {"d3": 2}}
    runs = {"bm25": {"q1": [("d1", 2.0), ("d2", 1.0)], "q2": [("d4", 1.0), ("d3", 0.5)]},
            "teacher": {"q1": [("d2", 0.9), ("d1", 0.1)], "q2": [("d3", 0.7)]}}
    table, fields = pipeline.evaluate_runs(runs, qrels, 2, False, tmp_path)
    reports = {name: evaluate(run, qrels, k=2) for name, run in runs.items()}
    assert table == (tmp_path / "metrics.txt").read_text() == format_metric_table(
        list(reports.items()), k=2)
    assert fields == {"metrics": read_json(tmp_path / "metrics.json")}
    assert fields["metrics"]["bm25"] == {"map": 0.75, "p_at_k": 0.5,
                                         "ndcg_at_k": reports["bm25"].mean_ndcg_at_k,
                                         "query_count": 2, "warnings": []}
    assert fields["metrics"]["teacher"]["map"] == 0.75


def test_evaluate_runs_tables_an_ensemble_and_reports_the_noise(tmp_path):
    qrels = {"q1": {"d1": 1, "d2": 1}}
    ranked = {"d1 d2": [("d1", 1.0), ("d2", 0.5), ("d3", 0.1)],
              "d3 first": [("d3", 1.0), ("d1", 0.5), ("d2", 0.1)],
              "d3 last": [("d1", 1.0), ("d3", 0.5), ("d2", 0.1)]}
    runs = {"bm25": ranked["d1 d2"], "teacher_00": ranked["d3 first"],
            "teacher_01": ranked["d1 d2"], "aggregate": ranked["d1 d2"],
            "aggregate_noisy": ranked["d3 last"], "student": ranked["d3 first"]}
    runs = {name: {"q1": run} for name, run in runs.items()}
    table, fields = pipeline.evaluate_runs(runs, qrels, 3, False, tmp_path, agreement=0.75)
    assert [" ".join(row.split()[:-3]) for row in table.splitlines()[2:]] == [
        "teachers avg", "aggregate non-noisy", "aggregate noisy", "student"]
    metrics = read_json(tmp_path / "metrics.json")
    assert fields["metrics"] == metrics
    assert set(metrics) == {"teachers_avg", *runs}
    assert metrics["teachers_avg"]["map"] == (metrics["teacher_00"]["map"]
                                              + metrics["teacher_01"]["map"]) / 2
    assert fields["agreement_nonnoisy_vs_mean"] == 0.75
    assert fields["noisy_vs_nonnoisy"] == {
        "map_delta": metrics["aggregate_noisy"]["map"] - metrics["aggregate"]["map"],
        "ndcg_delta": metrics["aggregate_noisy"]["ndcg_at_k"]
        - metrics["aggregate"]["ndcg_at_k"]}
    assert fields["noisy_vs_nonnoisy"]["map_delta"] < 0


def counting_scorers(monkeypatch, count):
    """Make every scorer of a run, the student's included, call
    count(params, pools) before each call, by query terms or by rows."""
    def scorer(params, index):
        scores = pool_scorer(params, index)

        def counted(queries_terms, pools):
            count(params, pools)
            return scores(queries_terms, pools)

        def counted_rows(query_rows, pools):
            count(params, pools)
            return scores.rows(query_rows, pools)

        counted.rows = counted_rows
        return counted

    for module in (pipeline, private, distill):
        monkeypatch.setattr(module, "pool_scorer", scorer)


def counting_stages(monkeypatch):
    """Record the name of every pipeline stage as it starts; returns the list."""
    stage_run, stages = pipeline._StageRunner.run, []

    def staged(self, name, fn):
        stages.append(name)
        return stage_run(self, name, fn)

    monkeypatch.setattr(pipeline._StageRunner, "run", staged)
    return stages


def test_pate_rank_stage_scores_each_pool_once_per_model(workspace, tmp_path,
                                                        monkeypatch):
    # the teacher_NN, aggregate and aggregate_noisy runs share one teacher
    # score array per pool, so in the rank stage every model scores the rows
    # of every evaluation pool once, all of them in one call
    calls, rows = Counter(), Counter()
    stages = counting_stages(monkeypatch)

    def count(params, pools):
        if stages[-1] == "rank":
            calls[id(params)] += 1
            rows[id(params)] += sum(map(len, pools))

    counting_scorers(monkeypatch, count)
    config = base_config(workspace, tmp_path / "pate")
    run_pipeline(config, "pate")
    index = load_index(config.out / "index.bin")
    pool_rows = sum(len(index.search(q.terms, config.rank_pool_size)[0])
                    for q in read_queries(config.queries_eval))
    assert sorted(rows.values()) == [pool_rows] * 4  # three teachers, one student
    assert sorted(calls.values()) == [1] * 4


def test_pate_agreement_scores_its_own_pools_once_per_side_and_teacher(
        workspace, tmp_path, monkeypatch):
    # the evaluate stage reads no other stage's scores: its aggregate side
    # (teacher_scores) and its mean side (teacher_mean) each score every
    # agreement pool in one call per teacher
    pools_scored, calls = Counter(), Counter()
    stages = counting_stages(monkeypatch)

    def count(params, pools):
        if stages[-1] == "evaluate":
            pools_scored[id(params)] += len(pools)
            calls[id(params)] += 1

    counting_scorers(monkeypatch, count)
    config = base_config(workspace, tmp_path / "pate")
    report = run_pipeline(config, "pate")
    index = load_index(config.out / "index.bin")
    eval_queries = read_queries(config.queries_eval)
    _, agreement_pools, _ = pipeline._eval_pairs(
        eval_queries, bm25_rankings(index, eval_queries, 6), 6)
    assert agreement_pools
    assert sorted(pools_scored.values()) == [2 * len(agreement_pools)] * 3
    assert sorted(calls.values()) == [2] * 3
    assert report["agreement_nonnoisy_vs_mean"] == 1.0


def test_pate_run_represents_each_document_once_per_scoring_model(
        workspace, tmp_path, monkeypatch):
    # one scorer per model serves mimic labeling, the rank stage and the
    # agreement check, and the student's one scorer its held-out agreement
    # and the rank stage, so outside training steps a scoring model's
    # document rows reach the representation blocks at most once in the
    # whole run (the student trains as the object that then scores)
    scoring, kept, represented, training = {}, [], Counter(), []
    represent, step = ranker._represent_blocks, ranker.compute_loss_and_grads

    def stepped(*args, **kwargs):
        training.append(True)
        try:
            return step(*args, **kwargs)
        finally:
            training.pop()

    def recorded(params, blocks, n_rows):
        kept.append(params)  # no model is freed, so no id is reused
        if training:
            return represent(params, blocks, n_rows)
        blocks = list(blocks)
        for _, u, counts in blocks:
            for row in counts:
                at = row != 0
                represented[id(params), tuple(u[at].tolist()), tuple(row[at].tolist())] += 1
        return represent(params, blocks, n_rows)

    monkeypatch.setattr(ranker, "_represent_blocks", recorded)
    monkeypatch.setattr(ranker, "compute_loss_and_grads", stepped)
    counting_scorers(monkeypatch,
                     lambda params, pools: scoring.setdefault(id(params), params))
    out = tmp_path / "pate"
    run_pipeline(base_config(workspace, out), "pate")
    index = load_index(out / "index.bin")
    docs = {(tuple(terms.tolist()), tuple(map(float, counts)))
            for terms, counts in map(index.doc_rows, range(index.doc_count))}
    assert len(docs) == index.doc_count  # a row names its document
    per_model = Counter()
    for (model, terms, counts), times in represented.items():
        if model in scoring and (terms, counts) in docs:
            assert times == 1
            per_model[model] += 1
    assert len(scoring) == 4  # three teachers, one student
    assert all(per_model[model] > 0 for model in scoring)


@pytest.mark.parametrize("mode", ["distill", "pate"])
def test_student_run_equals_a_run_of_the_saved_student(workspace, tmp_path, mode):
    # the rank stage ranks with the scorer distill_student built over the
    # trained student, which must give the bits of a fresh scorer over the
    # student read back from student.ckpt
    out = tmp_path / mode
    config = base_config(workspace, out)
    run_pipeline(config, mode)
    index = load_index(out / "index.bin")
    student = load_model(out / "checkpoints" / "student.ckpt")
    queries = read_queries(config.queries_eval)
    pools = bm25_pools(bm25_rankings(index, queries, config.rank_pool_size),
                       config.rank_pool_size)
    run = model_run(index, queries, pool_scorer(student, index), pools, config.rank_cutoff)
    write_run(tmp_path / "student.run", run, tag="student")
    assert (tmp_path / "student.run").read_bytes() == \
        (out / "runs" / "student.run").read_bytes()


def test_pipeline_rejects_a_student_that_reads_back_changed(workspace, tmp_path,
                                                            monkeypatch):
    # the run ranks with the trained student's scorer only because the
    # saved copy reads back equal: one ulp off in one array stops the run
    save = pipeline.save_model

    def perturbing(path, params):
        if Path(path).name == "student.ckpt":
            embedding = params.embedding.copy()
            embedding[0, 0] = np.nextafter(embedding[0, 0], np.inf)
            params = dataclasses.replace(params, embedding=embedding)
        return save(path, params)

    monkeypatch.setattr(pipeline, "save_model", perturbing)
    out = tmp_path / "distill"
    with pytest.raises(ValueError, match=r"student\.ckpt: array embedding"):
        run_pipeline(base_config(workspace, out), "distill")
    marker = (out / "FAILED").read_text()
    assert "stage: distill" in marker
    assert "student.ckpt" in marker
    assert not (out / "runs" / "student.run").exists()


def test_pate_ensemble_runs_equal_their_labelers_runs(workspace, tmp_path):
    out = tmp_path / "pate"
    config = base_config(workspace, out)
    run_pipeline(config, "pate")
    index = load_index(out / "index.bin")
    ensemble, _ = load_ensemble(out / "checkpoints" / "ensemble")
    privacy = ensemble.config
    queries = read_queries(config.queries_eval)
    pools = bm25_pools(bm25_rankings(index, queries, config.rank_pool_size),
                       config.rank_pool_size)
    # fresh scorers give the run's bits, although the run's scorers had
    # labeled the unlabeled pools before they ranked; aggregate_noisy draws
    # pool i's noise from (privacy seed, i, EVAL_NOISE_TAG)
    scorers = teacher_scorers(ensemble, index)
    labelers = {f"teacher_{i:02d}": model_labels(scorer)
                for i, scorer in enumerate(teacher_scorers(ensemble, index))}
    labelers["aggregate"] = lambda q, pool, qpos: noisy_aggregate(
        scorers, q.terms, pool, 0.0)
    labelers["aggregate_noisy"] = lambda q, pool, qpos: noisy_aggregate(
        scorers, q.terms, pool, privacy.noise_scale,
        seeding.rng(privacy.seed, qpos, EVAL_NOISE_TAG))
    run_scorers = ensemble_run_scorers(teacher_scorers(ensemble, index), privacy)
    assert sorted(run_scorers) == sorted(labelers)
    for name, label_fn in labelers.items():
        # one labeler call per pool, at the pool's query position
        def scores(queries_terms, pools, label_fn=label_fn):
            return [label_fn(q, pool, qpos)
                    for qpos, (q, pool) in enumerate(zip(queries, pools))]

        for source, scorer in (("labeler", scores), ("run scorer", run_scorers[name])):
            run = model_run(index, queries, scorer, pools, config.rank_cutoff)
            write_run(tmp_path / f"{name}.run", run, tag=name)
            assert (tmp_path / f"{name}.run").read_bytes() == \
                (out / "runs" / f"{name}.run").read_bytes(), (name, source)


@pytest.mark.parametrize("noise_scale", [0.05, 0.0])
def test_pate_draws_noise_once_per_labeled_and_ranked_pool(workspace, tmp_path,
                                                           monkeypatch, noise_scale):
    # every Laplace stream of a run comes from private.noise_stream: one per
    # annotated unlabeled query for the labels, one per evaluation query for
    # the aggregate_noisy run, and none at noise scale 0
    drawn, stream = [], private.noise_stream

    def recorded(privacy, qpos, tag):
        drawn.append((tag, qpos))
        return stream(privacy, qpos, tag)

    monkeypatch.setattr(private, "noise_stream", recorded)
    config = base_config(workspace, tmp_path / "pate", noise_scale=noise_scale)
    report = run_pipeline(config, "pate")
    if noise_scale == 0.0:
        assert drawn == []
        return
    index = load_index(config.out / "index.bin")
    annotated = [qpos for qpos, q in enumerate(read_queries(config.queries_unlabeled))
                 if len(index.search(q.terms, config.pool_size)[0]) > 1]
    assert len(annotated) == report["soft_annotation"]["queries_annotated"]
    n_eval = len(read_queries(config.queries_eval))
    assert drawn == ([(NOISE_TAG, qpos) for qpos in annotated]
                     + [(EVAL_NOISE_TAG, qpos) for qpos in range(n_eval)])


def test_pipeline_and_cli_hold_no_noise_key():
    # the privacy mechanism lives in private: no other module keys noise
    for module in (pipeline, cli):
        source = Path(module.__file__).read_text(encoding="utf-8")
        assert "seeding" not in vars(module) and "seeding" not in source, module
        assert not [name for name in vars(module) if "NOISE" in name], module
        assert "NOISE_TAG" not in source, module


def test_pate_single_teacher_without_noise_reduces_to_distill(workspace, tmp_path):
    distill_out = tmp_path / "distill"
    pate_out = tmp_path / "pate1"
    run_pipeline(base_config(workspace, distill_out), "distill")
    run_pipeline(
        base_config(workspace, pate_out, n_partitions=1, noise_scale=0.0), "pate")
    assert (distill_out / "checkpoints" / "student.ckpt").read_bytes() == \
        (pate_out / "checkpoints" / "student.ckpt").read_bytes()
    assert (distill_out / "checkpoints" / "teacher.ckpt").read_bytes() == \
        (pate_out / "checkpoints" / "ensemble" / "teacher_00.ckpt").read_bytes()
    assert (distill_out / "runs" / "student.run").read_bytes() == \
        (pate_out / "runs" / "student.run").read_bytes()
    d_metrics = read_json(distill_out / "metrics.json")["student"]
    p_metrics = read_json(pate_out / "metrics.json")["student"]
    assert d_metrics == p_metrics
    d_row = [r for r in (distill_out / "metrics.txt").read_text().splitlines()
             if r.startswith("student")]
    p_row = [r for r in (pate_out / "metrics.txt").read_text().splitlines()
             if r.startswith("student")]
    assert d_row == p_row


def test_pipeline_failure_leaves_marker_and_partial_artifacts(workspace, tmp_path):
    out = tmp_path / "failing"
    config = base_config(workspace, out, pool_size=1)  # pools too thin to pair
    with pytest.raises(ValueError, match="pool_size"):
        run_pipeline(config, "weak")
    marker = (out / "FAILED").read_text()
    assert "stage: annotate" in marker
    assert "build-index" in marker
    assert (out / "index.bin").is_file()
    assert not list(out.glob(".*.tmp"))  # the marker went through atomic_write
    # a successful rerun clears the marker
    run_pipeline(base_config(workspace, out), "weak")
    assert not (out / "FAILED").exists()


def test_write_collection_leaves_no_temporary_sibling(tmp_path):
    paths = write_collection(mini_collection(), tmp_path / "inputs")
    assert sorted(p.name for p in (tmp_path / "inputs").iterdir()) == sorted(
        p.name for p in paths.values())
    assert all(p.stat().st_size > 0 for p in paths.values())


def test_rerun_in_another_mode_leaves_only_its_own_artifacts(workspace, tmp_path):
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    reused.mkdir()
    (reused / "notes.txt").write_text("not a run artifact\n", encoding="utf-8")
    run_pipeline(base_config(workspace, reused), "pate")
    run_pipeline(base_config(workspace, reused), "weak")
    run_pipeline(base_config(workspace, fresh), "weak")

    def tree(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in root.rglob("*") if p.is_file()}

    left, expected = tree(reused), tree(fresh)
    assert left.pop("notes.txt") == b"not a run artifact\n"
    assert sorted(left) == sorted(expected)
    assert left == expected


def test_pipeline_malformed_input_leaves_marker(workspace, tmp_path):
    out = tmp_path / "malformed"
    run_pipeline(base_config(workspace, out), "weak")
    bad = tmp_path / "queries_eval.tsv"
    bad.write_text("qe1\tfine\nno tab here\n", encoding="utf-8")
    with pytest.raises(ValueError, match="queries_eval.tsv:2"):
        run_pipeline(base_config(workspace, out, queries_eval=bad), "weak")
    marker = (out / "FAILED").read_text()
    assert "stage: read-inputs" in marker
    assert "completed: build-index\n" in marker


def test_pipeline_rejects_unknown_mode_and_missing_inputs(workspace, tmp_path):
    config = base_config(workspace, tmp_path / "x")
    with pytest.raises(ConfigError, match="unknown mode"):
        run_pipeline(config, "bogus")
    with pytest.raises(ConfigError, match="queries.unlabeled"):
        run_pipeline(
            base_config(workspace, tmp_path / "y", queries_unlabeled=None),
            "distill")
    with pytest.raises(FileNotFoundError, match="nonexistent"):
        run_pipeline(
            base_config(workspace, tmp_path / "z",
                        qrels=workspace / "nonexistent.txt"), "weak")


# ---------------------------------------------------------------------------
# Command line


def test_cli_index_annotate_train_rank_evaluate_flow(workspace, tmp_path, capsys):
    idx = tmp_path / "index.bin"
    ann = tmp_path / "train.tsv"
    ckpt = tmp_path / "teacher.ckpt"
    runf = tmp_path / "teacher.run"
    conf = str(workspace / "run.conf")
    assert main(["build-index", "--corpus", str(workspace / "corpus.jsonl"),
                 "--out", str(idx)]) == 0
    assert main(["annotate", "--index", str(idx),
                 "--queries", str(workspace / "queries_train.tsv"),
                 "--out", str(ann), "--pool-size", "20",
                 "--pairs-per-query", "10", "--seed", "3"]) == 0
    assert main(["train-teacher", "--index", str(idx),
                 "--queries", str(workspace / "queries_train.tsv"),
                 "--annotations", str(ann), "--out", str(ckpt),
                 "--epochs", "3", "--seed", "3", "--config", conf]) == 0
    assert main(["rank", "--index", str(idx),
                 "--queries", str(workspace / "queries_eval.tsv"),
                 "--model", str(ckpt), "--out", str(runf),
                 "--pool-size", "30", "--cutoff", "30"]) == 0
    assert main(["evaluate", "--run", str(runf),
                 "--qrels", str(workspace / "qrels.txt")]) == 0
    table = capsys.readouterr().out.splitlines()
    assert any(line.startswith("teacher") for line in table)


def test_cli_stage_chain_writes_the_distill_pipeline_artifacts(workspace, tmp_path):
    # the stage commands derive their component seeds from seed_plan(--seed)
    # like the pipeline, so a chain at seed 11 writes the seed-11 run's bytes
    runs = {mode: tmp_path / mode for mode in ("distill", "weak")}
    for mode, out in runs.items():
        run_pipeline(base_config(workspace, out), mode)
    cli = tmp_path / "cli"
    cli.mkdir()
    conf, seed = str(workspace / "run.conf"), ["--seed", "11"]
    queries = {split: str(workspace / f"queries_{split}.tsv")
               for split in ("train", "unlabeled", "eval")}
    index = ["--index", str(cli / "index.bin")]
    for argv in (
            ["build-index", "--corpus", str(workspace / "corpus.jsonl"),
             "--out", str(cli / "index.bin")],
            ["annotate", *index, "--queries", queries["train"], "--out",
             str(cli / "train.tsv"), "--pool-size", "20", "--pairs-per-query", "10",
             *seed],
            ["train-teacher", *index, "--queries", queries["train"],
             "--annotations", str(cli / "train.tsv"), "--out", str(cli / "teacher.ckpt"),
             "--epochs", "3", "--config", conf, *seed],
            ["distill", *index, "--teacher", str(cli / "teacher.ckpt"),
             "--queries", queries["unlabeled"], "--out", str(cli / "student.ckpt"),
             "--annotations-out", str(cli / "soft.tsv"), "--epochs", "3",
             "--pool-size", "20", "--pairs-per-query", "10", "--config", conf, *seed],
            *(["rank", *index, "--queries", queries["eval"], "--model",
               str(cli / f"{name}.ckpt"), "--out", str(cli / f"{name}.run"),
               "--pool-size", "30", "--cutoff", "30", "--tag", name]
              for name in ("teacher", "student"))):
        assert main(argv) == 0, argv[0]
    for mine, run, theirs in (
            ("index.bin", "distill", "index.bin"),
            ("train.tsv", "distill", "annotations/train.tsv"),
            ("teacher.ckpt", "distill", "checkpoints/teacher.ckpt"),
            ("student.ckpt", "distill", "checkpoints/student.ckpt"),
            ("soft.tsv", "distill", "annotations/soft.tsv"),
            ("student.run", "distill", "runs/student.run"),
            # a distill run's teacher scorer labels before it ranks, a weak
            # run's only ranks, and the CLI's only ranks: the same scores
            ("teacher.run", "distill", "runs/teacher.run"),
            ("teacher.run", "weak", "runs/teacher.run")):
        assert (cli / mine).read_bytes() == (runs[run] / theirs).read_bytes(), mine


def test_cli_pate_writes_the_pate_pipeline_artifacts(workspace, tmp_path):
    run = tmp_path / "run"
    run_pipeline(base_config(workspace, run), "pate")
    common = ["--index", str(run / "index.bin"), "--config", str(workspace / "run.conf"),
              "--queries", str(workspace / "queries_unlabeled.tsv"),
              "--student-epochs", "3", "--pool-size", "20", "--pairs-per-query", "10",
              "--seed", "11"]
    trained, reused = tmp_path / "trained", tmp_path / "reused"
    assert main(["pate", *common, "--out", str(trained),
                 "--annotations", str(run / "annotations" / "train.tsv"),
                 "--train-queries", str(workspace / "queries_train.tsv"),
                 "--teacher-epochs", "3"]) == 0
    assert main(["pate", *common, "--out", str(reused),
                 "--ensemble", str(run / "checkpoints" / "ensemble")]) == 0

    def tree(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in root.rglob("*") if p.is_file()}

    assert tree(trained / "shards") == tree(run / "shards")
    assert len(tree(trained / "ensemble")) == 4  # three teachers, the manifest
    assert tree(trained / "ensemble") == tree(run / "checkpoints" / "ensemble")
    student = (run / "checkpoints" / "student.ckpt").read_bytes()
    assert (trained / "student.ckpt").read_bytes() == student
    assert (reused / "student.ckpt").read_bytes() == student


def test_cli_rank_rejects_a_tag_a_run_file_cannot_hold(workspace, tmp_path, capsys):
    # a run line with an empty tag has 5 fields, and one with a spaced tag
    # more than 6, so evaluate could not read the file back
    idx, runf = tmp_path / "index.bin", tmp_path / "bm25.run"
    assert main(["build-index", "--corpus", str(workspace / "corpus.jsonl"),
                 "--out", str(idx)]) == 0
    for tag in ("", "my run"):
        capsys.readouterr()
        assert main(["rank", "--index", str(idx), "--tag", tag, "--out", str(runf),
                     "--queries", str(workspace / "queries_eval.tsv")]) == 1, tag
        assert f"run tag {tag!r} is empty or holds whitespace" in capsys.readouterr().err
        assert not runf.exists()


def test_cli_rank_without_model_uses_bm25(workspace, tmp_path):
    idx = tmp_path / "index.bin"
    runf = tmp_path / "bm25.run"
    assert main(["build-index", "--corpus", str(workspace / "corpus.jsonl"),
                 "--out", str(idx)]) == 0
    assert main(["rank", "--index", str(idx),
                 "--queries", str(workspace / "queries_eval.tsv"),
                 "--out", str(runf), "--cutoff", "10", "--tag", "bm25"]) == 0
    first = runf.read_text().splitlines()[0].split()
    assert first[1] == "Q0" and first[3] == "1" and first[5] == "bm25"


def few_document_index(workspace, tmp_path):
    """Index file of the mini corpus's first ten documents, which hold fewer
    terms than the full index."""
    few_corpus, few_idx = tmp_path / "few.jsonl", tmp_path / "few.bin"
    lines = (workspace / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    few_corpus.write_text("\n".join(lines[:10]) + "\n", encoding="utf-8")
    assert main(["build-index", "--corpus", str(few_corpus), "--out", str(few_idx)]) == 0
    return few_idx


def test_cli_rank_rejects_checkpoint_of_another_index(workspace, tmp_path, capsys):
    # a model built on ten documents indexes fewer terms than the full
    # index: ranking with it must fail, not remap terms silently, and say
    # which model and which index disagree
    idx, few_idx = tmp_path / "index.bin", few_document_index(workspace, tmp_path)
    assert main(["build-index", "--corpus", str(workspace / "corpus.jsonl"),
                 "--out", str(idx)]) == 0
    few = load_index(few_idx)
    ckpt = tmp_path / "few.ckpt"
    save_model(ckpt, init_params(TINY_TEACHER, few.vocabulary, few, seed=1))
    capsys.readouterr()
    code = main(["rank", "--index", str(idx),
                 "--queries", str(workspace / "queries_eval.tsv"),
                 "--model", str(ckpt), "--out", str(tmp_path / "x.run")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{ckpt} does not fit the index {idx}" in err
    assert f"({len(few.vocabulary)} terms)" in err
    assert f"({len(load_index(idx).vocabulary)} terms)" in err
    assert not (tmp_path / "x.run").exists()


def test_cli_pate_ensemble_and_distill_name_the_model_and_index_that_differ(
        workspace, saved_ensemble, tmp_path, capsys):
    # the saved ensemble and the teacher were built on the full index
    idx, ensemble = saved_ensemble
    few_idx = few_document_index(workspace, tmp_path)
    index, teacher = load_index(idx), tmp_path / "teacher.ckpt"
    save_model(teacher, init_params(TINY_TEACHER, index.vocabulary, index, seed=1))
    for argv, model, out, student in (
            (["pate", "--ensemble", str(ensemble)], ensemble, tmp_path / "p",
             tmp_path / "p" / "student.ckpt"),
            (["distill", "--teacher", str(teacher)], teacher, tmp_path / "s.ckpt",
             tmp_path / "s.ckpt")):
        capsys.readouterr()
        assert main(argv + ["--index", str(few_idx), "--out", str(out),
                            "--queries", str(workspace / "queries_unlabeled.tsv")]) == 2
        err = capsys.readouterr().err
        assert f"{model} does not fit the index {few_idx}" in err, argv[0]
        assert "the model was built on another index" in err, argv[0]
        assert not student.exists(), argv[0]


def test_cli_rebuild_is_byte_stable(workspace, tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    for target in (a, b):
        assert main(["build-index", "--corpus", str(workspace / "corpus.jsonl"),
                     "--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_missing_file_exits_2_with_path(workspace, tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    code = main(["build-index", "--corpus", str(missing),
                 "--out", str(tmp_path / "i.bin")])
    assert code == 2
    assert "nope.jsonl" in capsys.readouterr().err


def test_cli_unknown_config_key_exits_2(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("corpus = corpus.jsonl\nseed = 0\nout = o\nwat = 1\n")
    assert main(["pipeline", "--mode", "weak", "--config", str(bad)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_cli_pipeline_seed_and_out_overrides(workspace, tmp_path, capsys):
    out = tmp_path / "cli_weak"
    code = main(["pipeline", "--mode", "weak", "--config",
                 str(workspace / "run.conf"), "--out", str(out),
                 "--seed", "21"])
    assert code == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["seed"] == 21
    assert capsys.readouterr().out.startswith("system")


def test_cli_pipeline_rejects_nan_noise_scale(tmp_path, capsys):
    # a NaN noise scale used to release noise-free labels and write NaN,
    # which is not JSON, into manifest.json
    key = "privacy.noise_scale"
    lines = [kept for kept in CONFIG_TEMPLATE.splitlines() if not kept.startswith(key)]
    conf = tmp_path / "nan.conf"  # rejected before any path is opened
    conf.write_text("\n".join(lines + [f"{key} = nan"]) + "\n")
    out = tmp_path / "run"
    assert main(["pipeline", "--mode", "pate", "--config", str(conf),
                 "--out", str(out)]) == 2
    assert f"{key}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_cli_pate_rejects_non_finite_noise_scale(tmp_path, capsys):
    # each used to exit 1 once the index and the annotations were read;
    # argparse now rejects it as a bad flag, before any path is opened, and
    # -1 with it (test_cli_rejects_out_of_range_run_settings)
    out = tmp_path / "p"
    for value in ("nan", "inf"):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            main(["pate", "--index", "i", "--queries", "q", "--annotations", "a",
                  "--train-queries", "t", "--out", str(out), "--noise-scale", value])
        assert exited.value.code == 2, value
        assert ("argument --noise-scale: must be finite and non-negative, got "
                f"{value}") in capsys.readouterr().err
        assert not out.exists()


def test_cli_rank_rejects_cutoff_and_pool_size_below_one(tmp_path, capsys):
    # a negative cutoff used to drop documents from the end of every ranking;
    # then each of these exited 1 after the index, the queries and the model
    # were read. Now argparse rejects them first: none of the paths exists
    run = tmp_path / "x.run"
    base = ["rank", "--index", str(tmp_path / "index.bin"), "--out", str(run),
            "--queries", str(tmp_path / "queries.tsv")]
    model = ["--model", str(tmp_path / "m.ckpt")]
    for flags, problem in ((["--cutoff", "-3"], "--cutoff: must be at least 1, got -3"),
                           (["--cutoff", "0", *model], "--cutoff: must be at least 1, got 0"),
                           (["--pool-size", "-3", *model],
                            "--pool-size: must be at least 1, got -3"),
                           (["--pool-size", "0", *model],
                            "--pool-size: must be at least 1, got 0")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            main(base + flags)
        assert exited.value.code == 2, flags
        assert f"argument {problem}" in capsys.readouterr().err, flags
        assert not run.exists()


@pytest.mark.parametrize("key, least", [("rank.cutoff", 1), ("rank.pool_size", 1),
                                        ("annotate.pool_size", 2)],
                         ids=["rank.cutoff", "rank.pool_size", "annotate.pool_size"])
def test_cli_pipeline_rejects_pool_and_cutoff_below_one(tmp_path, capsys, key, least):
    # a rank.cutoff of -3 used to train the teacher and the student first
    lines = [kept for kept in CONFIG_TEMPLATE.splitlines() if not kept.startswith(key)]
    conf = tmp_path / "neg.conf"  # rejected before any path is opened
    conf.write_text("\n".join(lines + [f"{key} = -3"]) + "\n")
    out = tmp_path / "run"
    assert main(["pipeline", "--mode", "weak", "--config", str(conf),
                 "--out", str(out)]) == 2
    assert f"{key}: must be at least {least}, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_out_of_range_run_settings(tmp_path, capsys):
    # each used to exit 0: a held-out fraction of 1.5 trained the student on
    # one pair, -2 student epochs wrote an untrained student, and 0 pairs per
    # query or a pool of 1 failed only after the index was built; a negative
    # --seed failed in numpy without naming the flag. An evaluate.k of 0
    # failed only after every model was trained, 0 partitions or a negative
    # noise scale only after the annotations were written, and evaluate
    # --k 0 only after both files were read
    out = tmp_path / "run"
    for key, value, problem in (
            ("distill.heldout_fraction", "1.5", "must be in [0, 1), got 1.5"),
            ("epochs.student", "-2", "must be at least 0, got -2"),
            ("epochs.teacher", "-2", "must be at least 0, got -2"),
            ("annotate.pairs_per_query", "0", "must be at least 1, got 0"),
            ("annotate.pool_size", "1", "must be at least 2, got 1"),
            ("evaluate.k", "0", "must be at least 1, got 0"),
            ("privacy.n_partitions", "0", "must be at least 1, got 0"),
            ("privacy.noise_scale", "-1", "must be at least 0, got -1.0")):
        lines = [kept for kept in CONFIG_TEMPLATE.splitlines()
                 if not kept.startswith(key)]
        conf = tmp_path / "range.conf"  # rejected before any path is opened
        conf.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        capsys.readouterr()
        assert main(["pipeline", "--mode", "distill", "--config", str(conf),
                     "--out", str(out)]) == 2, key
        assert f"{key}: {problem}" in capsys.readouterr().err
        assert not out.exists()
    pate = ["pate", "--index", "i", "--queries", "q", "--annotations", "a",
            "--train-queries", "t", "--out", str(out)]
    distill_cmd = ["distill", "--index", "i", "--teacher", "t", "--queries", "q",
                   "--out", str(out)]
    annotate = ["annotate", "--index", "i", "--queries", "q", "--out", str(out)]
    train_teacher = ["train-teacher", "--index", "i", "--queries", "q",
                     "--annotations", "a", "--out", str(out)]
    pipeline_cmd = ["pipeline", "--mode", "weak", "--config", "c", "--out", str(out)]
    evaluate_cmd = ["evaluate", "--run", "r", "--qrels", "q"]
    for argv, flag, value, problem in (
            (distill_cmd, "--heldout-fraction", "1.5", "must be in [0, 1), got 1.5"),
            (pate, "--heldout-fraction", "-0.5", "must be in [0, 1), got -0.5"),
            (distill_cmd, "--epochs", "-2", "must be at least 0, got -2"),
            (train_teacher, "--epochs", "-1", "must be at least 0, got -1"),
            (pate, "--teacher-epochs", "-1", "must be at least 0, got -1"),
            (pate, "--student-epochs", "-2", "must be at least 0, got -2"),
            (pate, "--pairs-per-query", "0", "must be at least 1, got 0"),
            (annotate, "--pairs-per-query", "-1", "must be at least 1, got -1"),
            (annotate, "--pool-size", "1", "must be at least 2, got 1"),
            (distill_cmd, "--pool-size", "1", "must be at least 2, got 1"),
            (pate, "--pool-size", "0", "must be at least 2, got 0"),
            (pate, "--n-partitions", "0", "must be at least 1, got 0"),
            (pate, "--noise-scale", "-1", "must be finite and non-negative, got -1.0"),
            (evaluate_cmd, "--k", "0", "must be at least 1, got 0"),
            (annotate, "--seed", "-1", "must be at least 0, got -1"),
            (train_teacher, "--seed", "-1", "must be at least 0, got -1"),
            (distill_cmd, "--seed", "-1", "must be at least 0, got -1"),
            (pate, "--seed", "-1", "must be at least 0, got -1"),
            (pipeline_cmd, "--seed", "-1", "must be at least 0, got -1")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            main(argv + [flag, value])
        assert exited.value.code == 2, (argv[0], flag)
        assert f"argument {flag}: {problem}" in capsys.readouterr().err
        assert not out.exists()


def test_pipeline_rejects_rank_cutoff_below_one(workspace, tmp_path):
    out = tmp_path / "neg"
    with pytest.raises(ValueError, match="k must be at least 1"):
        run_pipeline(base_config(workspace, out, rank_cutoff=-3), "weak")
    assert "stage: rank" in (out / "FAILED").read_text()


@pytest.fixture(scope="module")
def saved_ensemble(workspace, tmp_path_factory):
    """Index and untrained 3-teacher, b = 0.05 ensemble directory."""
    base = tmp_path_factory.mktemp("ensemble")
    idx = base / "index.bin"
    assert main(["build-index", "--corpus", str(workspace / "corpus.jsonl"),
                 "--out", str(idx)]) == 0
    index = load_index(idx)
    teachers = [init_params(TINY_TEACHER, index.vocabulary, index, seed=s)
                for s in range(3)]
    save_ensemble(base / "ensemble", teachers, PrivacyConfig(noise_scale=0.05))
    return idx, base / "ensemble"


def pate_with_ensemble(workspace, saved_ensemble, out, flags):
    idx, ensemble = saved_ensemble
    return main(["pate", "--index", str(idx), "--ensemble", str(ensemble),
                 "--config", str(workspace / "run.conf"), "--student-epochs", "1",
                 "--queries", str(workspace / "queries_unlabeled.tsv"),
                 "--out", str(out)] + flags)


@pytest.mark.parametrize("flags,problem", [
    (["--noise-scale", "0.9"], "--noise-scale 0.9 differs from the saved ensemble's 0.05"),
    (["--n-partitions", "5"], "--n-partitions 5 differs from the saved ensemble's 3"),
    (["--teacher-epochs", "7"], "--teacher-epochs applies only with --annotations"),
    (["--train-queries", "does-not-exist.tsv"],
     "--train-queries applies only with --annotations"),
], ids=["noise-scale", "n-partitions", "teacher-epochs", "train-queries"])
def test_cli_pate_ensemble_rejects_other_privacy_settings(workspace, saved_ensemble,
                                                          tmp_path, capsys, flags, problem):
    # these flags used to be ignored: asking for more noise got the saved
    # level, and teacher epochs or training queries trained nothing
    capsys.readouterr()
    assert pate_with_ensemble(workspace, saved_ensemble, tmp_path / "p", flags) == 2
    assert problem in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("flags", [
    [], ["--noise-scale", "0.05", "--n-partitions", "3"], ["--noise-scale", "5e-2"],
], ids=["omitted", "equal", "equal-spelled-otherwise"])
def test_cli_pate_ensemble_keeps_saved_privacy_settings(workspace, saved_ensemble,
                                                        tmp_path, capsys, flags):
    capsys.readouterr()
    assert pate_with_ensemble(workspace, saved_ensemble, tmp_path / "p", flags) == 0
    assert "3 teachers (noise scale 0.05)" in capsys.readouterr().out
    assert (tmp_path / "p" / "student.ckpt").is_file()


@pytest.mark.parametrize("flags,expected", [
    ([], (3, 0.05)), (["--n-partitions", "2", "--noise-scale", "0.5"], (2, 0.5)),
], ids=["defaults", "given"])
def test_cli_pate_privacy_flags_without_ensemble(workspace, saved_ensemble, tmp_path,
                                                 flags, expected):
    idx, _ = saved_ensemble
    ann = tmp_path / "ann.tsv"
    assert main(["annotate", "--index", str(idx), "--out", str(ann),
                 "--queries", str(workspace / "queries_train.tsv")]) == 0
    assert main(["pate", "--index", str(idx), "--annotations", str(ann),
                 "--train-queries", str(workspace / "queries_train.tsv"),
                 "--config", str(workspace / "run.conf"),
                 "--teacher-epochs", "1", "--student-epochs", "1",
                 "--queries", str(workspace / "queries_unlabeled.tsv"),
                 "--out", str(tmp_path / "p")] + flags) == 0
    manifest = read_json(tmp_path / "p" / "ensemble" / "manifest.json")
    assert (manifest["n_partitions"], manifest["noise_scale"]) == expected


def test_cli_pate_annotations_require_train_queries(workspace, tmp_path, capsys):
    idx = tmp_path / "index.bin"
    main(["build-index", "--corpus", str(workspace / "corpus.jsonl"),
          "--out", str(idx)])
    code = main(["pate", "--index", str(idx),
                 "--queries", str(workspace / "queries_unlabeled.tsv"),
                 "--annotations", str(tmp_path / "ann.tsv"),
                 "--out", str(tmp_path / "p")])
    assert code == 2
    assert "train-queries" in capsys.readouterr().err


def test_distill_and_pate_commands_take_no_judgments():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0])))
    for name in ("distill", "pate"):
        options = [s for action in sub.choices[name]._actions
                   for s in action.option_strings]
        assert options, name
        assert not any("qrel" in opt or "judg" in opt for opt in options), name


def child_env(**settings):
    """This process's environment plus settings, for a child that runs
    mimicrank: pytest's pythonpath setting reaches this process only, so the
    child is handed the directory this process imported mimicrank from."""
    package_root = str(Path(mimicrank.__file__).resolve().parent.parent)
    return {**os.environ, **settings, "PYTHONPATH": os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH"))))}


def test_manifest_records_the_blas_thread_settings_it_ran_under(workspace, tmp_path):
    # the same run in two processes that differ only in OPENBLAS_NUM_THREADS
    # writes manifests that differ only where they record it
    manifests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "mimicrank", "pipeline", "--mode", "weak",
             "--config", str(workspace / "run.conf"), "--out", str(out)],
            capture_output=True, text=True,
            env=child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS="1"))
        assert proc.returncode == 0, proc.stderr
        manifests.append(read_json(out / "manifest.json"))
    one, two = manifests
    assert one["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    assert two["blas_threads"] == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}
    assert {**two, "blas_threads": one["blas_threads"]} == one
    blas = one["versions"]["blas"]
    assert blas is None or set(blas) == {"name", "version"}


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "mimicrank", "--help"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "build-index" in proc.stdout and "pipeline" in proc.stdout
