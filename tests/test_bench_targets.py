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

from mimicrank import corpus, pipeline, ranker

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


def test_instance_fields_the_benchmark_reads():
    # around_annotate_pools reads these from every instance annotate_pools
    # returns; a change of the instance format must keep them
    fields = {f.name for f in dataclasses.fields(corpus.TrainingInstance)}
    assert {"query_id", "doc1_id", "doc2_id"} <= fields
