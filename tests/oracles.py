"""Test-only oracles, written from the definitions and kept independent of the
implementation: nothing here imports ``advbounds``.
"""

import functools
import math
from fractions import Fraction
from itertools import product

import numpy as np


def km_exact(k, d, n, rho):
    """Exact-rational recomputation of the cutoff sum from its definition.

    Same conventions as the library: h runs over the open ball |h| < rho,
    the term at h is doubled when |k - h| >= rho.
    """
    m = math.ceil(Fraction(rho) ** 2) - 1  # largest integer |h|^2 < rho^2
    k2 = sum(c * c for c in k)
    c = math.isqrt(m)
    total = Fraction(0)
    for h in product(range(-c, c + 1), repeat=d):
        h2 = sum(x * x for x in h)
        if h2 == 0 or h2 > m:
            continue
        km2 = sum((a - b) ** 2 for a, b in zip(k, h))
        if km2 == 0:
            continue
        dot = sum(a * b for a, b in zip(h, k))
        weight = 2 if km2 > m else 1
        total += Fraction(
            weight * (h2 * k2 - dot * dot), h2 ** (n + 1) * km2 ** (n + 1)
        )
    return Fraction(k2) ** n * total


@functools.lru_cache(maxsize=1)
def ball(d, radius):
    """Every nonzero h in Z^d with |h| < radius, as read-only int64 rows in lex
    order, and their |h|^2.  The last ball is kept, since callers probe many k
    against one truncation radius."""
    m = math.ceil(Fraction(radius) ** 2) - 1  # largest integer |h|^2 < radius^2
    c = math.isqrt(m)
    axis = np.arange(-c, c + 1, dtype=np.int64)
    rest = np.stack(np.meshgrid(*[axis] * (d - 1), indexing="ij"), axis=-1)
    rest = rest.reshape(-1, d - 1)
    rest2 = np.einsum("ij,ij->i", rest, rest)
    slices = []
    for x in axis.tolist():
        inside = rest[rest2 <= m - x * x]
        slices.append(np.hstack([np.full((len(inside), 1), x), inside]))
    pts = np.vstack(slices)
    pts = pts[np.any(pts != 0, axis=1)]
    norms = np.einsum("ij,ij->i", pts, pts)
    pts.setflags(write=False)
    norms.setflags(write=False)
    return pts, norms


def tail_sum(d, nu, rho):
    """The closed-form bound on sum_{|h| >= rho} |h|^(-nu) (nu > d,
    rho > 2 sqrt(d)), from shell counting:

        (2 pi^(d/2) / Gamma(d/2)) * sum_{i=0}^{d-1}
            C(d-1, i) d^((d-1-i)/2) / ((nu-1-i) (rho - 2 sqrt(d))^(nu-1-i)),

    with Gamma(d/2) = (d/2 - 1)! for even d and (2m)! sqrt(pi) / (4^m m!)
    for odd d = 2m + 1.
    """
    if d % 2 == 0:
        gamma = float(math.factorial(d // 2 - 1))
    else:
        m = (d - 1) // 2
        gamma = math.factorial(2 * m) * math.sqrt(math.pi) / (4**m * math.factorial(m))
    base = rho - 2.0 * math.sqrt(d)
    terms = [
        math.comb(d - 1, i) * d ** ((d - 1 - i) / 2.0)
        / ((nu - 1.0 - i) * base ** (nu - 1.0 - i))
        for i in range(d)
    ]
    return 2.0 * math.pi ** (d / 2.0) / gamma * math.fsum(terms)


#: Ball points per fsum partial in kk_direct.
CHUNK = 2_000_000


def kk_direct(k, d, n, rho, truncation_radius):
    """Interval (S, S + T) for the full, untruncated convolution sum at k,

        |k|^(2n) sum_{h != 0, k} |h^k|^2 / (|h|^(2n+2) |k-h|^(2n+2)).

    S is the exact sum over |h| < truncation_radius (an fsum per CHUNK points,
    then an fsum of those), and T bounds the discarded tail using
    |h^k|^2 <= |h|^2 |k|^2 and |k-h| >= |h|/2, which holds since the
    truncation radius exceeds 2 |k|.  Requires truncation_radius >
    2 (|k| + rho), so that the tail lies past both cutoff regions.
    """
    n = float(n)
    k = np.asarray(k, dtype=np.int64)
    k2 = int(k @ k)
    need = 2.0 * (math.sqrt(k2) + float(rho))
    if not float(truncation_radius) > need:
        raise ValueError(
            f"requires truncation_radius > 2*(|k|+rho) = {need:.6f}, "
            f"got {truncation_radius}"
        )
    pts, norms = ball(d, truncation_radius)
    partials = []
    for start in range(0, len(pts), CHUNK):
        h2 = norms[start:start + CHUNK]
        dot = pts[start:start + CHUNK] @ k
        km2 = k2 - 2 * dot + h2
        wedge = h2 * k2 - dot * dot
        live = km2 != 0
        terms = wedge[live] * (h2[live].astype(float) ** (-(n + 1.0)))
        terms = terms * (km2[live].astype(float) ** (-(n + 1.0)))
        partials.append(math.fsum(terms.tolist()))
    s_val = float(k2) ** n * math.fsum(partials)
    tail = tail_sum(d, 4.0 * n + 2.0, float(truncation_radius))
    t_val = float(k2) ** (n + 1.0) * 2.0 ** (2.0 * n + 2.0) * tail
    return s_val, s_val + t_val


# Reference loops for the fields layer.  A field is a plain dict mapping an
# integer tuple k to a complex d-vector; each loop works one mode, or one
# (h, g) pair of modes, at a time, with its dot products added left to right.


def _dot(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total = total + x * y
    return total


def advect_loop(d, v, w):
    """(v . grad) w by the per-pair loop, without its zero mode and without
    modes that sum to zero:

        out_k = (i / (2 pi)^(d/2)) sum_{h + g = k} (v_h . g) w_g,

    each component reduced with math.fsum.
    """
    prefactor = 1j * (2.0 * math.pi) ** (-d / 2.0)
    buckets = {}
    for h in sorted(v):
        for g in sorted(w):
            k = tuple(a + b for a, b in zip(h, g))
            factor = prefactor * complex(_dot(v[h], [float(c) for c in g]))
            buckets.setdefault(k, []).append(factor * w[g])
    out = {}
    for k, terms in buckets.items():
        vec = np.array(
            [
                complex(
                    math.fsum(t[j].real for t in terms),
                    math.fsum(t[j].imag for t in terms),
                )
                for j in range(d)
            ]
        )
        if any(k) and np.abs(vec).max() != 0.0:
            out[k] = vec
    return out


def leray_loop(field):
    """c -> c - (k.c / |k|^2) k, one mode at a time."""
    out = {}
    for k, c in field.items():
        kv = np.asarray(k, dtype=float)
        out[k] = c - (_dot(kv, c) / _dot(kv, kv)) * kv
    return out


def sobolev_loop(field, n):
    """sqrt(sum_k |k|^(2n) |c_k|^2) over one flat list of terms."""
    terms = []
    for k in sorted(field):
        weight = float(sum(c * c for c in k)) ** float(n)
        for x in field[k]:
            terms.append(weight * (x.real ** 2 + x.imag ** 2))
    return math.sqrt(math.fsum(terms))
