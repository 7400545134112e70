"""Deterministic random streams from composite integer seeds.

A seed is either a non-negative int or a list of them; extending it with
fixed tags yields independent, reproducible sub-streams (per query, per
epoch, per component) without any global state. Per-item derivation keeps
results independent of the order in which items are processed.
"""

import numpy as np


def entropy(seed, *tail):
    head = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    return [int(x) for x in head] + [int(t) for t in tail]


def rng(seed, *tail):
    return np.random.default_rng(entropy(seed, *tail))
