"""Central-difference check of analytic gradients, for the gradient tests."""

from dataclasses import dataclass

import numpy as np


@dataclass
class FDCheckReport:
    max_rel_error: float
    coords_checked: int
    tolerance: float
    worst: tuple  # (param index, flat coordinate, numeric, analytic)

    @property
    def passed(self):
        return self.max_rel_error < self.tolerance


def finite_difference_check(loss_fn, params, analytic_grads, h=1e-5,
                            tolerance=1e-4, max_coords_per_param=25, seed=0):
    """Central-difference check of analytic gradients on sampled coordinates.

    loss_fn() must be a deterministic function of the current params (it is
    re-evaluated with single coordinates perturbed, then restored). The
    relative-error denominator is floored at 1e-6 so coordinates where both
    gradients are essentially zero do not amplify finite-difference noise.
    """
    rng = np.random.default_rng(seed)
    max_rel = 0.0
    worst = None
    checked = 0
    for pi, (p, g) in enumerate(zip(params, analytic_grads)):
        n = p.size
        if n == 0:
            continue
        coords = (
            np.arange(n)
            if n <= max_coords_per_param
            else rng.choice(n, size=max_coords_per_param, replace=False)
        )
        for j in sorted(int(c) for c in coords):
            orig = p.flat[j]
            p.flat[j] = orig + h
            up = loss_fn()
            p.flat[j] = orig - h
            down = loss_fn()
            p.flat[j] = orig
            numeric = (up - down) / (2.0 * h)
            analytic = g.flat[j]
            denom = max(abs(numeric), abs(analytic), 1e-6)
            rel = abs(numeric - analytic) / denom
            checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = (pi, j, numeric, analytic)
    return FDCheckReport(max_rel, checked, tolerance, worst)
