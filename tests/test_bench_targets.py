"""The benchmark wraps program functions by name: keep every one it lists.

bench/worker.py patches each (owner, attribute) of its `targets()` list and
binds some of their parameters by name; a function deleted or renamed in
the program would crash the traced benchmark run. This test reads the
benchmark's own list and changes nothing under bench/.
"""

import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from mimicrank import corpus, distill, nn, pipeline, ranker
from mimicrank.toydata import mini_collection, write_collection
from tests.conftest import MICRO_STUDENT_CONFIG, MICRO_TEACHER_CONFIG
from tests.test_ranker import count_matrix_batch

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


def load_worker(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # worker.py extends it
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist_under_their_names(monkeypatch):
    worker = load_worker(monkeypatch)
    targets = worker.targets(1)
    assert len(targets) > len(worker.targets(0))
    for span, owner, attr, _ in targets:
        assert attr in owner.__dict__, span


def test_parameters_the_benchmark_binds_by_name():
    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert {"index", "queries", "label_fn"} <= params(corpus.annotate_pools)
    assert {"instances", "epochs"} <= params(ranker.train)
    assert "jobs" in params(pipeline.run_pipeline)
    # around_forward reads the rows it counts from args[1] or kwargs["x"]
    assert list(inspect.signature(nn.forward).parameters)[1] == "x"


def test_instance_fields_the_benchmark_reads():
    # around_annotate_pools reads these from every instance annotate_pools
    # returns; a change of the instance format must keep them
    fields = {f.name for f in dataclasses.fields(corpus.TrainingInstance)}
    assert {"query_id", "doc1_id", "doc2_id"} <= fields


def test_worker_counts_agree_with_the_pair_set_columns(monkeypatch):
    # around_annotate_pools counts the pool documents that end up in a pair
    # from the records it iterates, and around_train the pair epochs from
    # len(instances): both must match what the PairSet's columns hold
    worker = load_worker(monkeypatch)
    collection = mini_collection()
    index = corpus.build_index(collection.documents)
    counts = {}

    def count(key, value):
        counts[key] = counts.get(key, 0) + value

    def label_fn(query, pool, qpos):
        return np.arange(len(pool), dtype=np.float64) % 7

    pairs, report = worker.around_annotate_pools(
        corpus.annotate_pools, (index, collection.train_queries[:8], label_fn, 20, 5, 1), {},
        count)
    assert isinstance(pairs, corpus.PairSet)
    query = pairs.query.tolist()
    used = set(zip(query, pairs.doc1.tolist())) | set(zip(query, pairs.doc2.tolist()))
    assert counts["pool_docs_used"] == len(used) > 0
    assert counts["pairs_emitted"] == report.pairs_emitted == len(pairs)
    params = ranker.init_params(MICRO_TEACHER_CONFIG, index.vocabulary, index, seed=3)
    worker.around_train(ranker.train, (params, MICRO_TEACHER_CONFIG, pairs),
                        {"epochs": 2, "seed": 1}, count)
    assert counts["pair_epochs"] == len(pairs) * 2


def test_annotate_pools_labels_each_annotated_query_once_with_its_pool(monkeypatch):
    # label_docs_per_s counts the documents of every label_fn(query, pool,
    # qpos) call annotate_pools makes, so each annotated query must be
    # labeled in one call over its whole searched pool, and a skipped query
    # in none
    worker = load_worker(monkeypatch)
    collection = mini_collection()
    index = corpus.build_index(collection.documents)
    queries = [*collection.train_queries[:8], corpus.Query("unseen", ("zzz",))]
    calls, counts = [], {}

    def label_fn(query, pool, qpos):
        calls.append((query, list(pool), qpos))
        return np.arange(len(pool), dtype=np.float64)

    def count(key, value):
        counts[key] = counts.get(key, 0) + value

    _, report = worker.around_annotate_pools(
        corpus.annotate_pools, (index, queries, label_fn, 20, 5, 1), {}, count)
    searched = [(query, index.search(query.terms, 20)[0], qpos)
                for qpos, query in enumerate(queries)]
    assert calls == [call for call in searched if len(call[1]) >= 2]
    assert len(calls) == report.queries_annotated == 8
    assert counts["pool_docs"] == sum(len(pool) for _, pool, _ in calls)


def mini_run_config(tmp_path):
    """A run of micro models over mini_collection, written under tmp_path."""
    write_collection(mini_collection(), tmp_path)
    return pipeline.RunConfig(
        corpus=tmp_path / "corpus.jsonl", out=tmp_path / "run", seed=3,
        queries_train=tmp_path / "queries_train.tsv",
        queries_unlabeled=tmp_path / "queries_unlabeled.tsv",
        queries_eval=tmp_path / "queries_eval.tsv", qrels=tmp_path / "qrels.txt",
        teacher=MICRO_TEACHER_CONFIG, student=MICRO_STUDENT_CONFIG,
        pool_size=20, pairs_per_query=10, teacher_epochs=2, student_epochs=2,
        rank_pool_size=30, rank_cutoff=30, n_partitions=3, noise_scale=0.05)


def test_setup_window_holds_the_whole_index_build(tmp_path, monkeypatch):
    # setup_s runs from the start of corpus.read_corpus to the end of
    # corpus.save_index, through the bindings the benchmark's tracer wraps;
    # the build-index stage must call read_corpus, build_index and
    # save_index once each, in that order, and hand save_index an index
    # whose fields are all built, none added or replaced later in the run
    worker = load_worker(monkeypatch)
    config = mini_run_config(tmp_path)
    stage_run, stages, calls, saved = pipeline._StageRunner.run, [], [], {}

    def staged(self, name, fn):
        stages.append(name)
        return stage_run(self, name, fn)

    def recorded(fn, args, kwargs, count):
        calls.append((fn.__name__, stages[-1]))
        if fn.__name__ == "save_index":
            saved["index"] = index = args[1]
            saved["fields"] = dict(vars(index))
        return fn(*args, **kwargs)

    monkeypatch.setattr(pipeline._StageRunner, "run", staged)
    tracer = worker.Tracer()
    try:
        for attr in ("read_corpus", "build_index", "save_index"):
            tracer.install(f"corpus.{attr}", corpus, attr, recorded)
        pipeline.run_pipeline(config, "weak")
    finally:
        tracer.uninstall()
    assert calls == [(attr, "build-index")
                     for attr in ("read_corpus", "build_index", "save_index")]
    fields = saved["fields"]
    assert all(value is not None for value in fields.values())
    for name in ("postings", "offsets", "doc_lengths", "impacts"):
        assert isinstance(fields[name], np.ndarray), name
    after = vars(saved["index"])
    assert after.keys() == fields.keys()
    assert all(after[name] is value for name, value in fields.items())


def test_pate_rank_work_stays_inside_one_model_run_call_per_run_file(
        tmp_path, monkeypatch):
    # rank_docs_per_s divides the documents of the pipeline.model_run calls
    # by their time, so every model run file must come from its own call,
    # looked up through the module, and return {query_id: [(doc_id, score)]}
    config = mini_run_config(tmp_path)
    model_run, runs, searches = pipeline.model_run, [], []
    # the scorers fill their document tables lazily, so every
    # representation and forward of the rank stage's model runs must happen
    # inside model_run calls too; the stage searches each evaluation query
    # once, outside them, and every run cuts those rankings
    stage_run, stages, ranking, rank_work = pipeline._StageRunner.run, [], [], []
    represent, forward, search = ranker._represent_blocks, nn.forward, corpus.InvertedIndex.search

    def recorded(*args, **kwargs):
        ranking.append(True)
        try:
            runs.append(model_run(*args, **kwargs))
        finally:
            ranking.pop()
        return runs[-1]

    def staged(self, name, fn):
        stages.append(name)
        return stage_run(self, name, fn)

    def in_rank_stage(fn, work):
        def wrapped(*args, **kwargs):
            if stages[-1] == "rank":
                rank_work.append((work, bool(ranking)))
            return fn(*args, **kwargs)
        return wrapped

    def searched(self, *args, **kwargs):
        if stages[-1] == "rank":
            searches.append(bool(ranking))
        return search(self, *args, **kwargs)

    monkeypatch.setattr(pipeline, "model_run", recorded)
    monkeypatch.setattr(pipeline._StageRunner, "run", staged)
    monkeypatch.setattr(ranker, "_represent_blocks", in_rank_stage(represent, "fill"))
    monkeypatch.setattr(nn, "forward", in_rank_stage(forward, "forward"))
    monkeypatch.setattr(corpus.InvertedIndex, "search", searched)
    pipeline.run_pipeline(config, "pate")
    assert {work for work, _ in rank_work} == {"fill", "forward"}
    assert all(inside for _, inside in rank_work)
    run_files = sorted(p.stem for p in (config.out / "runs").glob("*.run"))
    assert len(runs) == len(run_files) - 1 == 6  # all but bm25.run
    n_queries = len(corpus.read_queries(config.queries_eval))
    assert searches == [False] * n_queries
    for run in runs:
        assert run and all(isinstance(qid, str) for qid in run)
        for entries in run.values():
            assert all(isinstance(doc_id, str) and isinstance(score, float)
                       for doc_id, score in entries)


@pytest.mark.parametrize("mode", ["distill", "pate"])
def test_mimic_labeling_work_stays_inside_annotate_pools(tmp_path, monkeypatch, mode):
    # label_docs_per_s divides the documents of the mimic labeling
    # corpus.annotate_pools calls by their time, and the labelers' scorers
    # fill their document tables lazily, inside those calls. So from the end
    # of teacher training to the rank stage, every representation and
    # forward must happen inside annotate_pools, or inside the student's
    # ranker.train or distill.label_agreement: a scorer that filled its
    # table when built would take that work out of the labeling span
    worker = load_worker(monkeypatch)
    config = mini_run_config(tmp_path)
    stage_run, spans, window, work = pipeline._StageRunner.run, [], [], []
    represent, forward = ranker._represent_blocks, nn.forward

    def staged(self, name, fn):
        if name == "rank":
            window.clear()
        result = stage_run(self, name, fn)
        if name.startswith("train-teacher"):
            window.append(name)
        return result

    def spanned(fn, args, kwargs, count):
        spans.append(fn.__name__)
        try:
            return fn(*args, **kwargs)
        finally:
            spans.pop()

    def watched(fn, kind):
        def wrapped(*args, **kwargs):
            if window:
                work.append((kind, tuple(spans)))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(pipeline._StageRunner, "run", staged)
    monkeypatch.setattr(ranker, "_represent_blocks", watched(represent, "fill"))
    monkeypatch.setattr(nn, "forward", watched(forward, "forward"))
    tracer = worker.Tracer()
    try:
        for name, owner, attr in (("corpus.annotate_pools", corpus, "annotate_pools"),
                                  ("ranker.train", ranker, "train"),
                                  ("distill.label_agreement", distill, "label_agreement")):
            tracer.install(name, owner, attr, spanned)
        pipeline.run_pipeline(config, mode)
    finally:
        tracer.uninstall()
    assert window == []  # the rank stage ran after the teachers were trained
    labeling = {kind for kind, inside in work if inside == ("annotate_pools",)}
    assert labeling == {"fill", "forward"}
    outside = [kind for kind, inside in work if not inside]
    assert outside == []


def test_training_forwards_take_one_row_per_batch_instance(monkeypatch):
    # around_forward counts nn.forward.rows from the x it is given (args[1]
    # or kwargs["x"]), so inside training that x must stay a 2-D array with
    # one row per instance of the batch
    params, batch = count_matrix_batch(0, dropout_keep=0.7)
    config = dataclasses.replace(params.config, batch_size=3)
    forward, shapes = nn.forward, []

    def recorded(*args, **kwargs):
        x = args[1] if len(args) > 1 else kwargs["x"]
        shapes.append(x.shape)
        return forward(*args, **kwargs)

    monkeypatch.setattr(nn, "forward", recorded)
    ranker.train(params, config, batch, epochs=2, seed=1)
    batch_sizes = [3, 3, 2] * 2  # 8 pairs, batches of 3, two epochs
    assert all(len(shape) == 2 for shape in shapes)
    assert [shape[0] for shape in shapes] == [size for size in batch_sizes for _ in range(2)]


def test_training_steps_go_through_the_module_attribute(monkeypatch):
    # the traced benchmark times ranker.compute_loss_and_grads by patching
    # the module attribute, so train must look it up there once per batch
    params, batch = count_matrix_batch(1)
    config = dataclasses.replace(params.config, batch_size=3)
    step, calls = ranker.compute_loss_and_grads, []

    def recorded(*args, **kwargs):
        calls.append(True)
        return step(*args, **kwargs)

    monkeypatch.setattr(ranker, "compute_loss_and_grads", recorded)
    ranker.train(params, config, batch, epochs=2, seed=1)
    assert len(calls) == 3 * 2  # 8 pairs in batches of 3, two epochs


def test_backward_and_adam_steps_go_through_the_nn_module_attributes(monkeypatch):
    # the traced benchmark counts nn.backward.calls and nn.optimizer_step.calls
    # by patching the nn module's attributes, so a training step must look
    # both up there: one backward per pair side and one Adam step per batch
    params, batch = count_matrix_batch(1)
    config = dataclasses.replace(params.config, batch_size=3)
    calls = {"backward": 0, "optimizer_step": 0}
    for name in calls:
        def recorded(*args, _name=name, _fn=getattr(nn, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(nn, name, recorded)
    ranker.train(params, config, batch, epochs=2, seed=1)
    batches = 3 * 2  # 8 pairs in batches of 3, two epochs
    assert calls == {"backward": 2 * batches, "optimizer_step": batches}
