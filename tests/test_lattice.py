import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

import advbounds.lattice as lattice_mod
from advbounds.lattice import (
    PointBudgetExceeded,
    enumerate_ball,
    enumerate_canonical,
    max_norm_sq_inside,
)
from oracles import (
    canonical_representative,
    is_canonical,
    orbit_size,
    shells,
    signed_permutations,
    wedge_norm_sq,
)


def brute_ball(d, rho):
    """Reference enumeration straight from the definition |h| < rho, h != 0."""
    m = max_norm_sq_inside(rho)
    c = math.isqrt(max(m, 0))
    pts = [
        h
        for h in product(range(-c, c + 1), repeat=d)
        if any(h) and sum(x * x for x in h) <= m
    ]
    return sorted(pts)


def test_max_norm_sq_inside_examples():
    assert max_norm_sq_inside(1) == 0
    assert max_norm_sq_inside(1.2) == 1
    assert max_norm_sq_inside(2) == 3
    assert max_norm_sq_inside(5) == 24
    assert max_norm_sq_inside(Fraction(5, 2)) == 6
    assert max_norm_sq_inside(2.5) == 6
    # float radii are taken at their exact binary value
    assert max_norm_sq_inside(np.sqrt(2.0) ** 2) == max_norm_sq_inside(
        Fraction(np.sqrt(2.0) ** 2)
    )


def test_ball_small_radii():
    assert len(enumerate_ball(3, 1)) == 0
    ball = enumerate_ball(3, 1.2)
    assert len(ball) == 6
    assert set(shells(ball.norm_sq)) == {1}
    ball2 = enumerate_ball(3, 2)
    counts = {v: len(idx) for v, idx in shells(ball2.norm_sq).items()}
    assert counts == {1: 6, 2: 12, 3: 8}
    assert len(ball2) == 26


def test_ball_strict_boundary():
    # |h| < 5 must exclude the 30 vectors with |h|^2 = 25 exactly
    ball = enumerate_ball(3, 5)
    assert 25 not in shells(ball.norm_sq)
    assert 24 in shells(ball.norm_sq)
    assert int(ball.norm_sq.max()) == 24


@pytest.mark.parametrize("d,rho", [(2, 3.5), (3, 2.7), (4, 2.2)])
def test_ball_matches_brute_force(d, rho):
    ball = enumerate_ball(d, rho)
    got = [tuple(row) for row in ball.points.tolist()]
    assert got == brute_ball(d, rho)
    # lex sorted, no duplicates
    assert got == sorted(set(got))


def test_ball_radius_type_independent():
    a = enumerate_ball(3, Fraction(5, 2))
    b = enumerate_ball(3, 2.5)
    assert np.array_equal(a.points, b.points)


def test_ball_norm_sq_consistency():
    ball = enumerate_ball(3, 4.0)
    ns = np.einsum("ij,ij->i", ball.points, ball.points)
    assert np.array_equal(ball.norm_sq, ns)
    by_norm_sq = shells(ball.norm_sq)
    for v, idx in by_norm_sq.items():
        assert np.all(ball.norm_sq[idx] == v)
    assert sum(len(idx) for idx in by_norm_sq.values()) == len(ball)


def test_ball_points_frozen():
    ball = enumerate_ball(2, 2.0)
    with pytest.raises(ValueError):
        ball.points[0, 0] = 7


def test_ball_validation(monkeypatch):
    with pytest.raises(ValueError, match="d >= 2"):
        enumerate_ball(1, 3.0)
    with pytest.raises(ValueError, match="rho > 0"):
        enumerate_ball(3, 0.0)
    monkeypatch.setattr(lattice_mod, "POINT_BUDGET", 1000)
    with pytest.raises(PointBudgetExceeded, match="budget is 1000"):
        enumerate_ball(3, 50.0)


def test_wedge_examples():
    assert wedge_norm_sq((1, 0, 0), (0, 2, 0)) == 4.0
    assert wedge_norm_sq((1, 2, 3), (4, 5, 6)) == 54.0
    # parallel vectors: exactly zero, not just small
    assert wedge_norm_sq((2, 1), (4, 2)) == 0.0
    assert wedge_norm_sq((3, -1, 2), (-6, 2, -4)) == 0.0
    assert wedge_norm_sq((2, 2, 4), (3, 0, 0)) == wedge_norm_sq((3, 0, 0), (2, 2, 4))


def test_wedge_scaling():
    p, q = (1, 2, -1), (3, 0, 2)
    assert wedge_norm_sq((2, 4, -2), (9, 0, 6)) == 36.0 * wedge_norm_sq(p, q)


def test_wedge_quadratic_identity(rng):
    """|p ^ q|^2 + (p.q)^2 == |p|^2 |q|^2, exactly for small integer vectors."""
    for _ in range(300):
        d = int(rng.integers(2, 5))
        p = rng.integers(-30, 31, size=d)
        q = rng.integers(-30, 31, size=d)
        lhs = wedge_norm_sq(p, q) + float(p @ q) ** 2
        rhs = float(p @ p) * float(q @ q)
        assert lhs == rhs  # all products stay below 2**53


def test_canonical_representative():
    assert canonical_representative((-3, 0, 2)) == (3, 2, 0)
    assert canonical_representative((1, -1, 1)) == (1, 1, 1)
    assert canonical_representative((0, -7)) == (7, 0)
    rep = canonical_representative((5, -2, 9, 0))
    assert canonical_representative(rep) == rep
    with pytest.raises(ValueError, match="zero vector"):
        canonical_representative((0, 0, 0))


def test_is_canonical():
    assert is_canonical((3, 2, 0))
    assert is_canonical((1, 1, 1))
    assert not is_canonical((2, 3, 0))
    assert not is_canonical((3, 2, -1))


@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=5).filter(any),
    st.randoms(use_true_random=False),
)
def test_canonical_invariant_under_orbit(vec, rnd):
    base = canonical_representative(vec)
    img = [s * x for s, x in zip((rnd.choice((1, -1)) for _ in vec), vec)]
    rnd.shuffle(img)
    assert canonical_representative(img) == base


def test_orbit_size_examples():
    assert orbit_size((1, 0, 0)) == 6
    assert orbit_size((1, 1, 1)) == 8
    assert orbit_size((1, 1, 0)) == 12
    assert orbit_size((2, 1, 0)) == 24
    assert orbit_size((3, 2, 1)) == 48
    assert orbit_size((2, 2)) == 4
    with pytest.raises(ValueError):
        orbit_size((0, 0))
    with pytest.raises(ValueError):
        orbit_size((1, 2, 0))  # not sorted descending


def test_orbit_size_matches_explicit_orbit():
    for rep in [(1, 0, 0), (1, 1, 0), (2, 1, 0), (3, 2, 1), (2, 2, 1), (4, 0)]:
        orb = signed_permutations(rep)
        assert len(orb) == orbit_size(rep)
        assert all(canonical_representative(k) == rep for k in orb)
        n2 = sum(x * x for x in rep)
        assert all(sum(x * x for x in k) == n2 for k in orb)


def test_canonical_reps_partition_the_ball():
    """Orbit sizes of the canonical list add up to the whole punctured ball."""
    for d, radius in [(2, 4.5), (3, 3.5)]:
        reps = enumerate_canonical(d, radius)
        total = sum(orbit_size(r) for r in reps)
        assert total == len(enumerate_ball(d, radius))
        covered = set()
        for r in reps:
            orb = signed_permutations(r)
            assert not (orb & covered)
            covered |= orb
        assert len(covered) == total


def test_enumerate_canonical_sorted_and_strict():
    reps = enumerate_canonical(3, 3.0)
    assert reps == sorted(reps)
    assert all(is_canonical(r) and any(r) for r in reps)
    m = max_norm_sq_inside(3.0)
    assert all(sum(x * x for x in r) <= m for r in reps)
    assert (2, 2, 0) in reps  # |k|^2 = 8 < 9
    assert (3, 0, 0) not in reps
    assert enumerate_canonical(2, 1.0) == []


def test_enumerate_canonical_budget_checked_before_building(monkeypatch):
    monkeypatch.setattr(lattice_mod, "CANONICAL_BUDGET", 10)
    assert len(enumerate_canonical(2, 4.0)) == 8  # c = 3: C(5, 2) = 10 tuples
    with pytest.raises(PointBudgetExceeded, match="15 sorted tuples"):
        enumerate_canonical(2, 5.0)  # c = 4: C(6, 2) = 15 tuples


def test_enumerate_canonical_huge_radius_fails_fast():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(PointBudgetExceeded, match="budget is 524288 reps"):
            enumerate_canonical(3, 1e6)
        # c = 150: C(153, 3) = 585,276 tuples bound the 305,293 reps
        with pytest.raises(PointBudgetExceeded, match="585276 sorted tuples"):
            enumerate_canonical(3, 151.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
