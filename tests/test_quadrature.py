"""Exactness and positivity of the integration rules."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from trifem.quadrature import interval_rule, triangle_rule


def exact_triangle_moment(a, b):
    return Fraction(factorial(a) * factorial(b), factorial(a + b + 2))


@pytest.mark.parametrize("degree", range(13))
def test_triangle_exactness_sweep(degree):
    rule = triangle_rule(degree)
    x, y = rule.points[:, 0], rule.points[:, 1]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.dot(rule.weights, x ** a * y ** b)
            exact = float(exact_triangle_moment(a, b))
            assert abs(val - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("degree", range(13))
def test_triangle_weights(degree):
    rule = triangle_rule(degree)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 0.5) < 1e-13


def test_triangle_reference_values():
    assert abs(triangle_rule(0).weights.sum() - 0.5) < 1e-13
    r2 = triangle_rule(2)
    assert abs(np.dot(r2.weights, r2.points[:, 0] * r2.points[:, 1]) - 1 / 24) < 1e-14
    r10 = triangle_rule(10)
    v = np.dot(r10.weights, r10.points[:, 0] ** 5 * r10.points[:, 1] ** 5)
    assert exact_triangle_moment(5, 5) == Fraction(1, 33264)
    assert abs(v - 1 / 33264) <= 1e-12 / 33264


@pytest.mark.parametrize("degree", range(12))
def test_interval_exactness(degree):
    rule = interval_rule(degree)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) < 1e-13
    for k in range(degree + 1):
        val = np.dot(rule.weights, rule.points ** k)
        assert abs(val - 1.0 / (k + 1)) <= 1e-13


def test_interval_reference_values():
    r1 = interval_rule(1)
    assert abs(np.dot(r1.weights, r1.points) - 0.5) < 1e-14
    r3 = interval_rule(3)
    assert len(r3.points) == 2
    assert abs(np.dot(r3.weights, r3.points ** 3) - 0.25) < 1e-14
    r11 = interval_rule(11)
    assert len(r11.points) == 6
    assert abs(np.dot(r11.weights, r11.points ** 11) - 1 / 12) < 1e-13


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        triangle_rule(13)
    with pytest.raises(ValueError):
        triangle_rule(-1)
    with pytest.raises(ValueError):
        interval_rule(-2)


@pytest.mark.parametrize("rule_of, degree", [(triangle_rule, 6),
                                             (interval_rule, 6)])
def test_rules_built_once_and_read_only(rule_of, degree):
    rule = rule_of(degree)
    assert rule_of(degree) is rule
    assert rule_of(degree + 2) is not rule
    for a in (rule.points, rule.weights):
        with pytest.raises(ValueError):
            a[0] = 0.5
