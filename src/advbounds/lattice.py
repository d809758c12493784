"""Integer-lattice geometry: ball enumeration and signed-permutation orbits.

The cutoff sums and the symmetry-reduced search sit on two primitives defined
here:

* enumeration of the open lattice ball {h in Z^d \\ {0} : |h| < rho} with an exact,
  type-independent boundary rule, and
* enumeration of the canonical representatives (sorted descending, nonnegative)
  of the orbits of the group generated by coordinate sign flips and
  permutations, the symmetry group of all the lattice sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

LatticeVector = tuple[int, ...]

#: Hard cap on the number of candidate cube points an enumeration may visit.
POINT_BUDGET = 80_000_000

#: Hard cap on the canonical representatives enumerate_canonical may build.
#: Each costs about 240 bytes once the sup K_m search holds it (its tuple,
#: about 75 bytes, plus the search's per-rep lists), so this caps that at
#: about 130 MB; the largest production search builds 6,363.
CANONICAL_BUDGET = 2**19


class PointBudgetExceeded(RuntimeError):
    """Ball enumeration would visit more candidate points than the budget allows."""


def max_norm_sq_inside(rho) -> int:
    """Largest integer m with m < rho**2, computed exactly.

    The radius may be an int, Fraction, or float; floats are interpreted at their
    exact binary value, so the strict comparison |h|^2 < rho^2 is deterministic
    for every input type and never suffers a rounding tie.
    """
    rsq = Fraction(rho) ** 2
    return math.ceil(rsq) - 1


@dataclass(eq=False)
class BallEnumeration:
    """All nonzero integer vectors strictly inside a sphere, in lexicographic order.

    points is an (N, d) int64 array whose rows are sorted lexicographically;
    the array is frozen after construction and safe to share between threads.
    """

    radius: object
    points: np.ndarray

    def __post_init__(self):
        self.points.setflags(write=False)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @cached_property
    def norm_sq(self) -> np.ndarray:
        """|h|^2 for each point, exact int64, aligned with points rows."""
        ns = np.einsum("ij,ij->i", self.points, self.points)
        ns.setflags(write=False)
        return ns


def enumerate_ball(d: int, rho) -> BallEnumeration:
    """Enumerate every nonzero h in Z^d with |h| < rho, exactly once, in lex order.

    Raises PointBudgetExceeded when the bounding cube holds more than
    POINT_BUDGET candidates (the check happens before any allocation, so an
    oversized radius fails fast instead of exhausting memory).
    """
    if d < 2:
        raise ValueError(f"requires d >= 2, got d={d}")
    if rho <= 0:
        raise ValueError(f"requires rho > 0, got rho={rho}")
    m = max_norm_sq_inside(rho)
    if m < 1:
        return BallEnumeration(radius=rho, points=np.empty((0, d), dtype=np.int64))
    c = math.isqrt(m)
    side = 2 * c + 1
    if side**d > POINT_BUDGET:
        raise PointBudgetExceeded(
            f"ball d={d}, rho={rho} needs {side ** d} cube candidates, "
            f"budget is {POINT_BUDGET}"
        )
    if d * c * c >= 2**62:
        raise ValueError(f"rho={rho} too large: |h|^2 would overflow the int64 fast path")

    axis = np.arange(-c, c + 1, dtype=np.int64)
    grids = np.meshgrid(*([axis] * (d - 1)), indexing="ij")
    rest = np.stack(grids, axis=-1).reshape(-1, d - 1)
    rest_sq = np.einsum("ij,ij->i", rest, rest)

    chunks = []
    for x in axis.tolist():
        keep = rest_sq <= m - x * x
        if not keep.any():
            continue
        block = rest[keep]
        first = np.full((block.shape[0], 1), x, dtype=np.int64)
        chunks.append(np.hstack([first, block]))
    pts = np.vstack(chunks) if chunks else np.empty((0, d), dtype=np.int64)
    pts = pts[np.any(pts != 0, axis=1)]
    return BallEnumeration(radius=rho, points=pts)


def check_canonical_budget(d: int, radius) -> None:
    """Raise PointBudgetExceeded when the C(c+d, d) sorted tuples with entries
    at most c = isqrt(|k|^2 bound), which bound the number of canonical
    representatives with |k| < radius, exceed CANONICAL_BUDGET."""
    m = max_norm_sq_inside(radius)
    if m >= 1 and math.comb(math.isqrt(m) + d, d) > CANONICAL_BUDGET:
        raise PointBudgetExceeded(
            f"canonical reps d={d}, radius={radius} span "
            f"{math.comb(math.isqrt(m) + d, d)} sorted tuples, "
            f"budget is {CANONICAL_BUDGET} reps"
        )


def enumerate_canonical(d: int, radius) -> list[LatticeVector]:
    """All nonzero canonical representatives with |k| < radius, sorted lexicographically.

    These index the orbits of the signed-permutation group inside the open ball;
    the search over sup K_m only ever evaluates these.  Raises
    PointBudgetExceeded (check_canonical_budget) before building any tuple.
    """
    if d < 2:
        raise ValueError(f"requires d >= 2, got d={d}")
    check_canonical_budget(d, radius)
    m = max_norm_sq_inside(radius)
    out: list[LatticeVector] = []
    vec = [0] * d

    def rec(pos: int, prev: int, room: int) -> None:
        if pos == d:
            out.append(tuple(vec))
            return
        top = min(prev, math.isqrt(room))
        for v in range(top, -1, -1):
            vec[pos] = v
            rec(pos + 1, v, room - v * v)

    if m >= 1:
        rec(0, math.isqrt(m), m)
        out.remove((0,) * d)
    out.sort()
    return out

