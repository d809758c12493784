"""Test-only oracles, written from the definitions and kept independent of the
implementation: nothing here imports ``advbounds``.
"""

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
