"""Config parsing, pipeline orchestration, and command-line behavior."""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import mimicrank
from mimicrank import distill, pipeline, private
from mimicrank.cli import build_parser, main
from mimicrank.corpus import load_index, read_queries
from mimicrank.distill import model_labels
from mimicrank.evaluation import write_run
from mimicrank.pipeline import (
    EVAL_NOISE_TAG,
    ConfigError,
    RunConfig,
    SEED_OFFSETS,
    config_hash,
    model_run,
    parse_config,
    read_model_configs,
    run_pipeline,
    seed_plan,
)
from mimicrank.private import (
    PrivacyConfig,
    TeacherEnsemble,
    ensemble_labels,
    load_ensemble,
    save_ensemble,
)
from mimicrank.ranker import (
    RankModelConfig,
    STUDENT_CONFIG,
    TEACHER_CONFIG,
    init_params,
    save_model,
    score_pool,
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


def test_pate_rank_stage_scores_each_pool_once_per_model(workspace, tmp_path,
                                                        monkeypatch):
    # the teacher_NN, aggregate and aggregate_noisy runs share one teacher
    # score array per pool, so every model scores every evaluation pool once
    calls = Counter()
    ranking = []

    def in_rank_stage(*args, **kwargs):
        ranking.append(True)
        try:
            return model_run(*args, **kwargs)
        finally:
            ranking.pop()

    def counted(params, query_terms, doc_rows):
        if ranking:
            calls[id(params)] += 1
        return score_pool(params, query_terms, doc_rows)

    monkeypatch.setattr(pipeline, "model_run", in_rank_stage)
    monkeypatch.setattr(private, "score_pool", counted)
    monkeypatch.setattr(distill, "score_pool", counted)
    run_pipeline(base_config(workspace, tmp_path / "pate"), "pate")
    n_pools = len(read_queries(workspace / "queries_eval.tsv"))
    assert sorted(calls.values()) == [n_pools] * 4  # three teachers, one student


def test_pate_ensemble_runs_equal_their_labelers_runs(workspace, tmp_path):
    out = tmp_path / "pate"
    config = base_config(workspace, out)
    run_pipeline(config, "pate")
    index = load_index(out / "index.bin")
    ensemble, _ = load_ensemble(out / "checkpoints" / "ensemble")
    quiet = dataclasses.replace(
        ensemble, config=dataclasses.replace(ensemble.config, noise_scale=0.0))
    queries = read_queries(config.queries_eval)
    labelers = {f"teacher_{i:02d}": model_labels(t, index)
                for i, t in enumerate(ensemble.teachers)}
    labelers["aggregate"] = ensemble_labels(quiet, index, EVAL_NOISE_TAG)
    labelers["aggregate_noisy"] = ensemble_labels(ensemble, index, EVAL_NOISE_TAG)
    for name, label_fn in labelers.items():
        run = model_run(index, queries, label_fn, config.rank_pool_size,
                        config.rank_cutoff)
        write_run(tmp_path / f"{name}.run", run, tag=name)
        assert (tmp_path / f"{name}.run").read_bytes() == \
            (out / "runs" / f"{name}.run").read_bytes(), name


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
    # a successful rerun clears the marker
    run_pipeline(base_config(workspace, out), "weak")
    assert not (out / "FAILED").exists()


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


def test_cli_rank_rejects_checkpoint_of_another_index(workspace, tmp_path, capsys):
    # a model built on ten documents indexes fewer terms than the full
    # index: ranking with it must fail, not remap terms silently
    idx, few_idx = tmp_path / "index.bin", tmp_path / "few.bin"
    few_corpus = tmp_path / "few.jsonl"
    lines = (workspace / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    few_corpus.write_text("\n".join(lines[:10]) + "\n", encoding="utf-8")
    assert main(["build-index", "--corpus", str(workspace / "corpus.jsonl"),
                 "--out", str(idx)]) == 0
    assert main(["build-index", "--corpus", str(few_corpus),
                 "--out", str(few_idx)]) == 0
    few = load_index(few_idx)
    ckpt = tmp_path / "few.ckpt"
    save_model(ckpt, init_params(TINY_TEACHER, few.vocabulary, few, seed=1))
    capsys.readouterr()
    code = main(["rank", "--index", str(idx),
                 "--queries", str(workspace / "queries_eval.tsv"),
                 "--model", str(ckpt), "--out", str(tmp_path / "x.run")])
    assert code != 0
    err = capsys.readouterr().err
    assert f"({len(few.vocabulary)} terms)" in err
    assert f"({len(load_index(idx).vocabulary)} terms)" in err
    assert not (tmp_path / "x.run").exists()


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


def test_cli_pate_rejects_non_finite_noise_scale(workspace, tmp_path, capsys):
    idx, ann = tmp_path / "index.bin", tmp_path / "ann.tsv"
    assert main(["build-index", "--corpus", str(workspace / "corpus.jsonl"),
                 "--out", str(idx)]) == 0
    assert main(["annotate", "--index", str(idx), "--out", str(ann),
                 "--queries", str(workspace / "queries_train.tsv")]) == 0
    capsys.readouterr()
    code = main(["pate", "--index", str(idx), "--noise-scale", "nan",
                 "--queries", str(workspace / "queries_unlabeled.tsv"),
                 "--annotations", str(ann),
                 "--train-queries", str(workspace / "queries_train.tsv"),
                 "--out", str(tmp_path / "p")])
    assert code == 1
    assert "noise_scale must be finite" in capsys.readouterr().err
    assert not (tmp_path / "p" / "student.ckpt").exists()


def test_cli_rank_rejects_cutoff_and_pool_size_below_one(workspace, tmp_path, capsys):
    # a negative cutoff used to drop documents from the end of every ranking
    idx, ckpt, run = tmp_path / "index.bin", tmp_path / "m.ckpt", tmp_path / "x.run"
    assert main(["build-index", "--corpus", str(workspace / "corpus.jsonl"),
                 "--out", str(idx)]) == 0
    index = load_index(idx)
    save_model(ckpt, init_params(TINY_TEACHER, index.vocabulary, index, seed=1))
    base = ["rank", "--index", str(idx), "--out", str(run),
            "--queries", str(workspace / "queries_eval.tsv")]
    for flags, problem in ((["--cutoff", "-3"], "k must be"),  # BM25 search
                           (["--cutoff", "0", "--model", str(ckpt)], "cutoff must be"),
                           (["--pool-size", "-3", "--model", str(ckpt)], "k must be")):
        capsys.readouterr()
        assert main(base + flags) == 1, flags
        assert problem in capsys.readouterr().err, flags
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
    # --seed failed in numpy without naming the flag
    out = tmp_path / "run"
    for key, value, problem in (
            ("distill.heldout_fraction", "1.5", "must be in [0, 1), got 1.5"),
            ("epochs.student", "-2", "must be at least 0, got -2"),
            ("epochs.teacher", "-2", "must be at least 0, got -2"),
            ("annotate.pairs_per_query", "0", "must be at least 1, got 0"),
            ("annotate.pool_size", "1", "must be at least 2, got 1")):
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
    save_ensemble(base / "ensemble",
                  TeacherEnsemble(teachers, PrivacyConfig(n_partitions=3, noise_scale=0.05)))
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
], ids=["noise-scale", "n-partitions"])
def test_cli_pate_ensemble_rejects_other_privacy_settings(workspace, saved_ensemble,
                                                          tmp_path, capsys, flags, problem):
    # these flags used to be ignored: asking for more noise got the saved level
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


def test_module_entry_point_runs():
    # pytest's pythonpath setting reaches this process only: hand the child
    # the directory this process imported mimicrank from
    package_root = str(Path(mimicrank.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "mimicrank", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "build-index" in proc.stdout and "pipeline" in proc.stdout
