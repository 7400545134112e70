"""End-to-end and per-layer metrics derived from recorded spans.

A pipeline run is the subtree under one `pipeline.run_pipeline` root span.
Every metric is computed per run and the benchmark reports the median over
the runs it made. End-to-end times are scaled to the reference machine
speed (machine_factors); per-layer times are as measured.
"""

import json
import statistics
from pathlib import Path

import calibrate

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# `<span>.<what>`: calls = count, s = inclusive time, self_s = time minus
# child spans
_SPAN_METRICS = [
    ("corpus.search", "calls"), ("corpus.search", "self_s"),
    ("corpus.bm25_score", "calls"), ("corpus.bm25_score", "s"),
    ("corpus.doc_terms", "calls"), ("corpus.doc_terms", "s"),
    ("corpus.annotate_pools", "self_s"),
    ("corpus.build_index", "s"), ("corpus.save_index", "s"),
    ("serialize.write_container", "calls"), ("serialize.write_container", "s"),
    ("serialize.read_container", "calls"), ("serialize.read_container", "s"),
    ("ranker.score", "calls"), ("ranker.score", "self_s"),
    ("ranker.term_index_counts", "calls"), ("ranker.term_index_counts", "s"),
    ("nn.forward", "calls"), ("nn.forward", "s"),
    ("ranker.compute_loss_and_grads", "calls"),
    ("ranker.compute_loss_and_grads", "self_s"),
    ("ranker.train", "s"),
    ("nn.backward", "calls"), ("nn.backward", "s"),
    ("nn.optimizer_step", "calls"), ("nn.optimizer_step", "s"),
    ("distill.label_agreement", "s"),
    ("private.train_teachers", "s"),
    ("private.noisy_aggregate", "calls"), ("private.noisy_aggregate", "self_s"),
    ("private.teacher_mean", "calls"), ("private.teacher_mean", "self_s"),
    ("private.laplace_sample", "calls"),
    ("private.pairwise_agreement", "s"),
    ("private.save_ensemble", "s"), ("private.load_ensemble", "s"),
    ("pipeline.model_run", "calls"), ("pipeline.model_run", "self_s"),
    ("pipeline.bm25_run", "s"),
    ("evaluation.evaluate", "s"), ("evaluation.write_run", "s"),
]


class StageMissing(ValueError):
    """A stage-level call that a rate needs never happened in a run."""


def _in_run(spans, idx, root):
    return idx[spans.root[idx] == root]


def _events(spans, root, span_name, key):
    """Counter values recorded on span_name spans under root."""
    nid = spans.names.index(span_name) if span_name in spans.names else -1
    return [
        value for i, k, value in spans.events
        if k == key and spans.name[i] == nid and spans.root[i] == root
    ]


def _labeling_spans(spans, root):
    """annotate_pools spans of the mimic labeling pass, not of BM25 annotation."""
    idx = _in_run(spans, spans.ids("corpus.annotate_pools"), root)
    return [i for i in idx
            if spans.name_of(spans.parent[i]) != "corpus.annotate_queries"]


def run_roots(spans):
    return [int(i) for i in spans.ids("pipeline.run_pipeline") if spans.parent[i] < 0]


_RATES = {
    "annotate": "annotate_pairs_per_s",
    "train": "train_pair_epochs_per_s",
    "label": "label_docs_per_s",
    "rank": "rank_docs_per_s",
}


def machine_factors(spans, roots):
    """How much slower than the reference the machine ran during each run.

    The worker runs calibrate.run() before every pipeline run and after the
    last one; a run's factor is the mean time of the two calls on either
    side of it over calibrate.REFERENCE_S.
    """
    cal = spans.ids("calibrate.run")
    factors = []
    for root in roots:
        before, after = cal[cal < root], cal[cal > root]
        if not (before.size and after.size):
            raise StageMissing(f"calibration around run {root}")
        mean = (spans.duration[before[-1]] + spans.duration[after[0]]) / 2
        factors.append(float(mean) / calibrate.REFERENCE_S)
    return factors


def _setup_s(spans, root):
    """Seconds from the run's read_corpus start to the next save_index end."""
    reads = _in_run(spans, spans.ids("corpus.read_corpus"), root)
    saves = _in_run(spans, spans.ids("corpus.save_index"), root)
    if reads.size:
        after = saves[(saves > reads[0]) & (spans.parent[saves] == spans.parent[reads[0]])]
        if after.size:
            return float(spans.end[after[0]] - spans.start[reads[0]])
    raise StageMissing(f"index set-up in run {root}")


def end_to_end(spans, roots):
    """run_s, setup_s and the four stage rates, each the median over the runs.

    A run's rate is its stage work over its stage time. Each run's times are
    divided by its machine factor, so they read as seconds at the reference
    speed. The median over runs, rather than all work over all time, lets a
    burst of load that the factor misses spoil one run's figure without
    moving the result.
    """
    dur = spans.duration
    per_run = []
    for root, factor in zip(roots, machine_factors(spans, roots)):
        lab = _labeling_spans(spans, root)
        lab_set = set(lab)
        work = {
            "annotate": sum(_events(spans, root, "corpus.annotate_queries",
                                    "pairs_emitted")),
            "train": sum(_events(spans, root, "ranker.train", "pair_epochs")),
            "label": sum(v for i, k, v in spans.events
                         if k == "pool_docs" and i in lab_set),
            "rank": sum(_events(spans, root, "pipeline.model_run", "docs")),
        }
        secs = {
            "annotate": dur[_in_run(spans, spans.ids("corpus.annotate_queries"),
                                    root)].sum(),
            "train": dur[_in_run(spans, spans.ids("ranker.train"), root)].sum(),
            "label": dur[lab].sum(),
            "rank": dur[_in_run(spans, spans.ids("pipeline.model_run"), root)].sum(),
        }
        values = {"run_s": float(dur[root]) / factor,
                  "setup_s": _setup_s(spans, root) / factor}
        for stage, name in _RATES.items():
            if not work[stage] or secs[stage] <= 0:
                raise StageMissing(f"{stage} in run {root}")
            values[name] = work[stage] * factor / secs[stage]
        per_run.append(values)
    return medians(per_run)


def layer_metrics(spans, root):
    """Every per-layer metric of one pipeline run (0 for layers that never ran)."""
    out = {}
    for span, what in _SPAN_METRICS:
        idx = _in_run(spans, spans.ids(span), root)
        if what == "calls":
            out[f"{span}.{what}"] = int(idx.size)
        elif what == "s":
            out[f"{span}.{what}"] = float(spans.duration[idx].sum())
        else:
            out[f"{span}.{what}"] = float(spans.self_time[idx].sum())
    out["corpus.pairs_emitted"] = sum(
        _events(spans, root, "corpus.annotate_pools", "pairs_emitted"))
    out["corpus.ties_discarded"] = sum(
        _events(spans, root, "corpus.annotate_pools", "ties_discarded"))
    out["serialize.bytes_written"] = sum(
        _events(spans, root, "serialize.write_container", "bytes"))
    rows = sum(_events(spans, root, "nn.forward", "rows"))
    out["nn.forward.rows"] = rows
    calls = out["nn.forward.calls"]
    out["nn.forward.rows_per_call"] = rows / calls if calls else 0.0
    lab = [i for i in _labeling_spans(spans, root)
           if spans.name_of(spans.parent[i]) == "distill.mimic_train"]
    out["distill.label.s"] = float(spans.duration[lab].sum()) if lab else 0.0
    lab_set = set(lab)
    labeled = sum(v for i, k, v in spans.events if k == "pool_docs" and i in lab_set)
    used = sum(v for i, k, v in spans.events if k == "pool_docs_used" and i in lab_set)
    out["distill.labels_used_ratio"] = used / labeled if labeled else 0.0
    return out


def medians(per_run):
    """Metric-wise median over a list of per-run dicts."""
    if not per_run:
        raise statistics.StatisticsError("no pipeline run completed")
    return {key: statistics.median(run[key] for run in per_run) for key in per_run[0]}


def as_output(values, kind):
    """The result's metrics: those of BENCHMARK.json's list `kind`
    ("end_to_end" or "per_layer") that were measured, with their units."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        listed = json.load(fh)[kind]
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in listed if m["name"] in values
    }

