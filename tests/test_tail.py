import math
import time
from fractions import Fraction

import numpy as np
import pytest

from advbounds.tail import (
    ParameterError,
    delta_K,
    gamma_half,
    tail_sum_bound,
    wedge_power_bound,
)
from conftest import rel_err
from oracles import wedge_power_ratio


def test_gamma_half_matches_math_gamma():
    for d in range(1, 13):
        assert rel_err(gamma_half(d), math.gamma(d / 2.0)) < 1e-13
    assert gamma_half(2) == 1.0
    assert gamma_half(4) == 1.0
    assert gamma_half(1) == pytest.approx(math.sqrt(math.pi))
    with pytest.raises(ValueError):
        gamma_half(0)


def test_tail_inputs_validation():
    with pytest.raises(ParameterError, match="d >= 2.*got d=1,"):
        tail_sum_bound(1, 5.0, 8.0)
    with pytest.raises(ParameterError, match="nu > d.*got d=3, nu=3.0,"):
        tail_sum_bound(3, 3.0, 8.0)
    with pytest.raises(ParameterError, match=r"rho > 2\*sqrt\(d\)"):
        tail_sum_bound(3, 7.0, 2.0 * math.sqrt(3.0))


def test_tail_sum_bound_majorizes_lattice_sum():
    """The closed form sits above a large truncated lattice sum, and not
    absurdly far above it."""
    ax = np.arange(-200, 201)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    h2 = (gx * gx + gy * gy).astype(float)
    partial = float(np.sum(h2[h2 >= 64.0] ** -2.5))
    bound = tail_sum_bound(2, 5.0, 8.0)
    assert partial < bound < 10.0 * partial


def test_tail_sum_bound_3d_soundness():
    ax = np.arange(-40, 41)
    gx, gy, gz = np.meshgrid(ax, ax, ax, indexing="ij")
    h2 = (gx * gx + gy * gy + gz * gz).astype(float)
    partial = float(np.sum(h2[h2 >= 100.0] ** -3.0))
    assert partial < tail_sum_bound(3, 6.0, 10.0)


def test_tail_sum_bound_monotone():
    b = lambda nu, rho: tail_sum_bound(2, nu, rho)
    assert b(5.0, 9.0) < b(5.0, 8.0)
    assert b(6.0, 8.0) < b(5.0, 8.0)  # base 8 - 2*sqrt(2) > 1


def test_wedge_power_bound_exact_values():
    assert wedge_power_bound(2) == 3.375  # 27/8
    assert wedge_power_bound(3) == 32768 / 3125
    assert rel_err(
        wedge_power_bound(2.5), 2.0**6 * 3.5**3.5 / 4.5**4.5
    ) < 1e-15


def test_wedge_power_bound_float_range():
    """B_516 is the last integer B_n below the float maximum: exact, and the
    log check refuses B_517 before building its integers."""
    exact = Fraction(2**1033 * 517**517, 518**518)
    assert wedge_power_bound(516) == float(exact)
    with pytest.raises(ParameterError, match=r"overflows a float at n=517"):
        wedge_power_bound(517)
    with pytest.raises(ParameterError, match=r"underflows to 0"):
        tail_sum_bound(3, 400.0, 3.5)
    with pytest.raises(ParameterError, match=r"\^799.0 overflows a float"):
        delta_K(3, 400, 1e6)


@pytest.mark.parametrize(
    "n,rho,message",
    [
        (10000, 5.0, "B_n = 2^(2n+1)"),
        (1e300, 5.0, "B_n = 2^(2n+1)"),
        (200.5, 5.0, "evaluating B_n in floats overflows"),
        (200, 3.5, "(rho - 2 sqrt(d))^(nu-1-i)"),
        (100, 3.5, "delta_K = 2 B_n T overflows"),
    ],
)
def test_delta_K_out_of_float_range(n, rho, message):
    """A power that leaves the float range is a named precondition, found
    before any huge integer is built."""
    start = time.perf_counter()
    with pytest.raises(ParameterError) as exc:
        delta_K(3, n, rho)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value).startswith(message)


def test_wedge_power_ratio_attains_bound():
    # equality at c = n/(n+2), u = 1
    for n in (2, 3, 5, 2.5):
        c_star = n / (n + 2.0)
        assert rel_err(wedge_power_ratio(n, c_star, 1.0), wedge_power_bound(n)) < 1e-14
    assert wedge_power_ratio(2, 0.5, 1.0) == 3.375


def test_wedge_power_ratio_below_bound(rng):
    for n in (2, 3, 2.5):
        bn = wedge_power_bound(n)
        c = rng.uniform(-1.0, 1.0, size=1000)
        u = rng.uniform(1e-3, 5.0, size=1000)
        for ci, ui in zip(c, u):
            assert wedge_power_ratio(n, ci, ui) <= bn * (1.0 + 1e-12)


def test_wedge_power_ratio_inversion_symmetric(rng):
    for _ in range(50):
        c = float(rng.uniform(-0.99, 0.99))
        u = float(rng.uniform(0.1, 4.0))
        assert rel_err(
            wedge_power_ratio(3, c, u), wedge_power_ratio(3, c, 1.0 / u)
        ) < 1e-12


def test_vector_inequality(rng):
    """|p^q|^2 |p+q|^(2n) <= B_n |p|^2 |q|^2 (|p|^(2n) + |q|^(2n))."""
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        p = rng.normal(size=d)
        q = rng.normal(size=d)
        p2, q2 = float(p @ p), float(q @ q)
        s = p + q
        wedge = max(p2 * q2 - float(p @ q) ** 2, 0.0)
        lhs = wedge * float(s @ s) ** n
        rhs = wedge_power_bound(n) * p2 * q2 * (p2**n + q2**n)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_delta_K_reference_values():
    assert rel_err(delta_K(3, 2.0, 20.0), 5.685689811937359) < 1e-13
    assert rel_err(delta_K(3, 3.0, 10.0), 0.4529582840089192) < 1e-13
    assert rel_err(delta_K(3, 4.0, 10.0), 0.02156144632951879) < 1e-13
    assert rel_err(delta_K(3, 5.0, 10.0), 0.0012414721453719866) < 1e-13
    assert rel_err(delta_K(3, 10.0, 10.0), 2.1401596178954893e-09) < 1e-13


def test_delta_K_factorization():
    for d, n, rho in [(3, 2.0, 20.0), (3, 3.0, 10.0), (2, 2.0, 7.0)]:
        want = 2.0 * wedge_power_bound(n) * tail_sum_bound(d, 2.0 * n, rho)
        assert delta_K(d, n, rho) == want


def test_delta_K_validation():
    with pytest.raises(ValueError, match="n > d/2"):
        delta_K(3, 1.0, 10.0)
    for n in (math.inf, math.nan):
        with pytest.raises(ValueError, match="requires a finite n"):
            delta_K(3, n, 10.0)
    with pytest.raises(ValueError, match=r"rho > 2\*sqrt\(d\)"):
        delta_K(3, 3.0, 3.0)


def test_delta_K_dominates_far_region_sample():
    """delta_K bounds |k|^(2n) * sum over the far-far region, checked against a
    truncated far-region sum at a few k."""
    d, n, rho = 3, 2.0, 5.0
    dk = delta_K(d, n, rho)
    ax = np.arange(-30, 31)
    pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    h2 = np.einsum("ij,ij->i", pts, pts)
    for k in [(12, 5, 3), (9, 0, 0), (7, 7, 1)]:
        kt = np.asarray(k)
        k2 = int(kt @ kt)
        dot = pts @ kt
        km2 = k2 - 2 * dot + h2
        wedge = (h2 * k2 - dot * dot).astype(float)
        far = (h2 >= 25) & (km2 >= 25)
        terms = (
            wedge[far]
            * h2[far].astype(float) ** -(n + 1.0)
            * km2[far].astype(float) ** -(n + 1.0)
        )
        assert float(k2) ** n * float(terms.sum()) < dk
