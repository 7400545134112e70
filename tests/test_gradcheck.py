"""The finite-difference harness itself."""

import numpy as np

from gradcheck import finite_difference_check


def test_fd_check_on_quadratic():
    theta = np.array([0.7, -1.3, 2.0])

    def loss():
        return float(0.5 * (theta**2).sum())

    report = finite_difference_check(loss, [theta], [theta.copy()])
    assert report.passed
    assert report.max_rel_error < 1e-6


def test_fd_check_flags_wrong_gradient():
    theta = np.array([1.0])

    def loss():
        return float(0.5 * (theta**2).sum())

    report = finite_difference_check(loss, [theta], [np.array([2.0])])
    assert not report.passed


def test_fd_check_unused_parameter_gradient_zero():
    used = np.array([1.0])
    unused = np.array([5.0])

    def loss():
        return float(used[0] ** 2)

    report = finite_difference_check(
        loss, [used, unused], [np.array([2.0]), np.array([0.0])]
    )
    assert report.passed
