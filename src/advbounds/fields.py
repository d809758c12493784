"""Sparse Fourier vector fields on the d-torus.

A field is a finite map k -> complex d-vector with the reality constraint
v_{-k} = conj(v_k) and no zero mode.  The module supplies the Leray projection
(coefficientwise orthogonal projection against k), the advection bilinear map
in Fourier space, weighted Sobolev norms, and a trial-field construction that
witnesses the lower bound for the advection constant end to end -- through the
actual convolution, projection and norm code, with no closed-form shortcut.

A field holds its keys and coefficients as arrays and is stored exactly
real; advect, leray_project and sobolev_norm run on those arrays.  Dot
products such as k . c are added component by component, left to right:
np.dot of a float and a complex vector goes through BLAS, whose last bits
depend on its build.  advect sums one member of each +-k output pair with
math.fsum, which rounds the exact sum of its terms once, whatever their
order, and mirrors the other exactly (see advect).

Serialization: one line per coefficient,

    k_1 ... k_d  re_1 im_1 ... re_d im_d

with repr-precision floats, so text round-trips are exact.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .sums import _k_scale
from .tail import ParameterError

_REL_TOL = 1e-9
#: Bound on |k_j|: keys are stacked as int64, where h + g must not wrap.
_KEY_BOUND = 2**62


def _as_key(k, d: int) -> tuple:
    key = tuple(map(int, k))
    if len(key) != d:
        raise ValueError(f"coefficient key {k} is not a {d}-vector")
    if not any(key):
        raise ValueError("fields are zero-mean: no coefficient at k = 0")
    if max(map(abs, key)) >= _KEY_BOUND:
        raise ValueError(f"coefficient key {k} has a component of 2^62 or more")
    return key


def _neg(k: tuple) -> tuple:
    return tuple(-c for c in k)


def _lex_runs(rows):
    """Stable lexicographic order of the int64 rows, and a mask over the
    sorted rows that is True where a run of equal rows starts."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order, starts


def _dot(a, b):
    """sum_j a[..., j] * b[..., j], added left to right from 0."""
    total = 0.0
    for j in range(a.shape[-1]):
        total = total + a[..., j] * b[..., j]
    return total


@dataclass(eq=False, frozen=True)
class FourierField:
    """Finitely supported Fourier coefficients of a real vector field.

    Both members of each +-k pair are stored, exactly real: construction
    validates the reality constraint, then a row at a key whose first nonzero
    coordinate is negative takes conj of its partner's row where the two
    differ in value.  The read-only arrays keys and rows hold coeffs in
    order, and partner[i] is the row of -keys[i].
    """

    d: int
    coeffs: dict
    keys: np.ndarray = field(init=False, repr=False)
    rows: np.ndarray = field(init=False, repr=False)
    partner: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = self.d
        if d < 2:
            raise ValueError(f"requires d >= 2, got d={d}")
        vecs = {}
        for k, c in self.coeffs.items():
            key = _as_key(k, d)
            vec = np.asarray(c, dtype=complex)
            if vec.shape != (d,):
                raise ValueError(f"coefficient at {key} has shape {vec.shape}, "
                                 f"expected ({d},)")
            vecs[key] = vec
        keys = np.array(list(vecs), dtype=np.int64).reshape(-1, d)
        self._store(keys, np.array(list(vecs.values()), dtype=complex).reshape(-1, d))

    @classmethod
    def _of_arrays(cls, d: int, keys, rows, partner=None) -> "FourierField":
        """The field of distinct nonzero int64 keys and complex rows, checked;
        partner[i], if given, is the row of -keys[i]."""
        big = (np.abs(keys) >= _KEY_BOUND).any(axis=1)
        if big.any():  # _as_key raises its 2^62 error
            _as_key(tuple(keys[np.argmax(big)].tolist()), d)
        out = cls.__new__(cls)
        object.__setattr__(out, "d", d)
        out._store(keys, rows, partner)
        return out

    def _store(self, keys, rows, partner=None):
        m = len(keys)
        if partner is None:
            # partner[i] is the row of -keys[i] or -1 (distinct keys: one per
            # run at most); runs rise in lexicographic order, so keys[i] < 0
            # iff run[i] < run[m + i].
            order, starts = _lex_runs(np.concatenate([keys, -keys]))
            run = np.empty(2 * m, dtype=np.int64)
            run[order] = np.cumsum(starts) - 1
            owner = np.full(2 * m, -1)
            owner[run[:m]] = np.arange(m)
            partner = owner[run[m:]]
            negative = run[:m] < run[m:]
        else:  # the first nonzero coordinate is negative
            negative = keys[np.arange(m), (keys != 0).argmax(axis=1)] < 0
        mirror = np.conj(rows[partner])
        err = np.abs(mirror - rows).max(axis=1, initial=0.0)
        scale = float(np.fmax.reduce(np.abs(rows), axis=None, initial=1.0))
        bad = (partner < 0) | (err > _REL_TOL * scale)
        if bad.any():
            i = int(np.argmax(bad))
            k = tuple(keys[i].tolist())
            if partner[i] < 0:
                raise ValueError(f"reality violated: {_neg(k)} missing for {k}")
            raise ValueError(f"reality violated at {k}: conjugate mismatch {err[i]:.3e}")
        rows = np.where(negative[:, None] & (rows != mirror), mirror, rows)
        keys.setflags(write=False)
        rows.setflags(write=False)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "partner", partner)
        object.__setattr__(self, "coeffs", dict(zip(map(tuple, keys.tolist()), rows)))

    @classmethod
    def build(cls, d: int, partial) -> "FourierField":
        """Complete a one-sided coefficient map with its conjugate modes."""
        full = {}
        for k, c in partial.items():
            key = _as_key(k, d)
            vec = np.asarray(c, dtype=complex)
            full[key] = vec
            neg = _neg(key)
            if neg not in partial:
                full[neg] = np.conj(vec)
        return cls(d=d, coeffs=full)


def leray_project(field: FourierField) -> FourierField:
    """Project each coefficient orthogonally to its wavenumber:
    c -> c - (k.c / |k|^2) k.  Divergence-free output, idempotent, and
    norm-nonincreasing (it is an orthogonal projection mode by mode).

    All modes are projected at once; k.c is added left to right.  Negating
    k and conjugating c conjugates every rounded step, so an exactly real
    input gives an exactly real output.
    """
    k = field.keys.astype(float)
    out = field.rows - (_dot(k, field.rows) / _dot(k, k))[:, None] * k
    return FourierField._of_arrays(field.d, field.keys, out, field.partner)


def advect(v: FourierField, w: FourierField) -> FourierField:
    """Fourier coefficients of (v . grad) w:

        (v.dw)_k = (i / (2 pi)^(d/2)) sum_h [v_h . (k - h)] w_{k-h}.

    The zero mode of the output must vanish (true whenever v is
    divergence-free); a significantly nonzero mean raises ValueError, a
    roundoff-level one is dropped, as are output modes that sum to zero.

    All H x G terms prefactor (v_h . g) w_g are built at once, with v_h . g
    added left to right.  The terms at the zero mode and at the k = h + g
    whose first nonzero coordinate is positive are sorted stably by k; each
    component is math.fsum over its run, which rounds the exact sum once.
    The row at -k is conj(row at k) + 0.0, as summing its own terms gives:
    v and w are stored exactly real, so the term at (-h, -g) is in value the
    conjugate of the term at (h, g) (each rounded product in v_h . g, their
    left-to-right sum, and the complex products with w_g and the imaginary
    prefactor commute with negation and conjugation); fsum rounds correctly,
    which commutes with negation, and gives +0.0 for an exact zero sum, where
    conj gives -0.0 and + 0.0 restores it.  The keys -k of the positive keys
    in reverse, then those keys, are in lexicographic order.
    """
    if v.d != w.d:
        raise ValueError(f"dimension mismatch: {v.d} != {w.d}")
    d = v.d
    prefactor = 1j * (2.0 * math.pi) ** (-d / 2.0)
    factor = prefactor * _dot(v.rows[:, None, :], w.keys[None, :, :].astype(float))
    terms = (factor[:, :, None] * w.rows[None, :, :]).reshape(-1, d)
    keys = (v.keys[:, None, :] + w.keys[None, :, :]).reshape(-1, d)
    biggest = float(np.abs(terms).max(initial=0.0))
    half = keys[np.arange(len(keys)), (keys != 0).argmax(axis=1)] >= 0  # k >= 0
    keys, terms = keys[half], terms[half]
    order, starts = _lex_runs(keys)
    keys, terms = keys[order][starts], terms[order]
    cuts = np.append(np.flatnonzero(starts), len(order)).tolist()
    columns = terms.view(float).T.tolist()  # re_1, im_1, ..., re_d, im_d
    vecs = np.array(
        [[math.fsum(col[a:b]) for col in columns] for a, b in zip(cuts, cuts[1:])]
    ).reshape(-1, 2 * d).view(complex)
    zero = ~keys.any(axis=1)
    if zero.any():
        mean = float(np.abs(vecs[zero]).max())
        if mean > _REL_TOL * max(1.0, biggest):
            raise ValueError(f"advection output has nonzero mean {mean:.3e}; "
                             f"the transporting field is not divergence-free")
    keep = ~zero & (vecs != 0.0).any(axis=1)
    pos, rows = keys[keep], vecs[keep]
    return FourierField._of_arrays(
        d, np.concatenate([-pos[::-1], pos]),
        np.concatenate([np.conj(rows[::-1]) + 0.0, rows]),
        np.arange(2 * len(pos))[::-1])


def sobolev_norm(field: FourierField, n) -> float:
    """Weighted l2 norm sqrt(sum_k |k|^(2n) |v_k|^2).

    The weight |k|^(2n) is float(|k|^2) ** n, once per distinct |k|^2; one
    that overflows a float or underflows to 0 raises ParameterError, and so
    does a weighted sum that is not finite.
    """
    nf = float(n)
    table, k = field.rows, field.keys.astype(float)
    k2, inverse = np.unique(_dot(k, k), return_inverse=True)
    weights = np.array([_k_scale(int(m), nf) for m in k2.tolist()])[inverse]
    # x ** 2 on a float is libm pow(x, 2), which is not always x * x;
    # np.float_power calls the same pow, so the norm is the one x ** 2 gives.
    with np.errstate(over="ignore"):  # an infinite term is refused below
        square = np.float_power(table.real, 2.0) + np.float_power(table.imag, 2.0)
        terms = (weights[:, None] * square).ravel().tolist()
    try:
        total = math.fsum(terms)
    except OverflowError:  # a partial sum left the float range
        total = math.inf
    if not math.isfinite(total):
        raise ParameterError(f"the norm^2 sum_k |k|^(2n) |v_k|^2 at n={nf} is not a "
                             f"finite float; requires smaller amplitudes or a smaller n")
    return math.sqrt(total)


def _amplitude_vectors(d, alpha, alpha_vec, beta, beta_vec):
    av = () if alpha_vec is None else tuple(complex(c) for c in alpha_vec)
    bv = () if beta_vec is None else tuple(complex(c) for c in beta_vec)
    if len(av) != d - 2 or len(bv) != d - 2:
        raise ValueError(
            f"amplitude tails must have length d-2 = {d - 2}, "
            f"got {len(av)} and {len(bv)}"
        )
    a_amp = np.array([0.0, complex(alpha), *av], dtype=complex)
    b_amp = np.array([complex(beta), 0.0, *bv], dtype=complex)
    for name, amp in (("(alpha, alpha_vec)", a_amp), ("(beta, beta_vec)", b_amp)):
        biggest = float(np.abs(amp).max())
        square = biggest * biggest
        if not math.isfinite(square):
            raise ParameterError(f"trial amplitude {name} is too large or nan: its "
                                 f"largest |component|^2 = {square!r} is not finite")
        if not biggest > 0.0:
            raise ValueError(f"zero trial amplitude: {name} vanishes")
        # the norms square the amplitudes; a subnormal square has lost digits
        if square < sys.float_info.min:
            raise ParameterError(
                f"trial amplitude {name} is too small: its largest |component|^2 "
                f"= {square!r} is below the normal float range; "
                f"requires a larger amplitude"
            )
    return a_amp, b_amp


def trial_pair(d, alpha, alpha_vec, beta, beta_vec):
    """The witness fields: v with amplitude (0, alpha, alpha_vec) on mode e_1,
    w with (beta, 0, beta_vec) on e_2, both completed to real fields.  The
    zero slots make each field divergence-free by construction."""
    if d < 2:
        raise ValueError(f"requires d >= 2, got d={d}")
    a_amp, b_amp = _amplitude_vectors(d, alpha, alpha_vec, beta, beta_vec)
    e1 = tuple([1] + [0] * (d - 1))
    e2 = tuple([0, 1] + [0] * (d - 2))
    v = FourierField.build(d, {e1: a_amp})
    w = FourierField.build(d, {e2: b_amp})
    return v, w


def lower_bound_witness(d, n, alpha, alpha_vec, beta, beta_vec) -> float:
    """Rayleigh-type ratio of the trial pair, computed end to end:

        ||P (v . grad) w||_n / (||v||_n ||w||_{n+1})

    with P the Leray projection -- a concrete certified lower bound for the
    sharp advection constant at (d, n).  No closed-form shortcut: the value
    goes through the actual convolution, projection and norm code.
    """
    v, w = trial_pair(d, alpha, alpha_vec, beta, beta_vec)
    numerator = sobolev_norm(leray_project(advect(v, w)), n)
    denominator = sobolev_norm(v, n) * sobolev_norm(w, float(n) + 1.0)
    return numerator / denominator


def witness_prediction(d, n, alpha, alpha_vec, beta, beta_vec) -> float:
    """Closed form the witness ratio must reproduce.

    The output modes sit at k = (+-1, +-1, 0, ...); projecting the amplitude
    (beta, 0, beta_vec) orthogonally to such a k sends beta to beta/2 in two
    slots, so |projected|^2 = |beta|^2/2 + |beta_vec|^2, giving

        ratio^2 = (2^n/(2 pi)^d) |alpha|^2 (|beta|^2/2 + |bvec|^2)
                  / ((|alpha|^2+|avec|^2)(|beta|^2+|bvec|^2)).

    A ratio^2 below the smallest normal float is refused: a subnormal ratio^2
    holds fewer than 53 significant bits, and the witness's weighted terms,
    which are of the same size, lose digits too.
    """
    a_amp, b_amp = _amplitude_vectors(d, alpha, alpha_vec, beta, beta_vec)
    a2 = float(np.sum(np.abs(a_amp) ** 2))
    b2 = float(np.sum(np.abs(b_amp) ** 2))
    alpha2 = abs(complex(alpha)) ** 2
    beta2 = abs(complex(beta)) ** 2
    bvec2 = b2 - beta2
    ratio_sq = (
        2.0 ** float(n)
        * (2.0 * math.pi) ** (-d)
        * alpha2
        * (0.5 * beta2 + bvec2)
        / (a2 * b2)
    )
    if ratio_sq < sys.float_info.min:
        raise ParameterError(
            f"the predicted ratio^2 underflows to 0 or below the normal float "
            f"range ({ratio_sq!r}) at n={n}; requires a larger n"
        )
    return math.sqrt(ratio_sq)


def field_to_text(field: FourierField) -> str:
    """One coefficient per line: integer k, then re/im pairs per component."""
    lines = []
    for k in sorted(field.coeffs):
        vec = field.coeffs[k]
        parts = [str(c) for c in k]
        for j in range(field.d):
            parts.append(repr(float(vec[j].real)))
            parts.append(repr(float(vec[j].imag)))
        lines.append(" ".join(parts))
    return "\n".join(lines)


def field_from_text(text: str) -> FourierField:
    """Inverse of field_to_text (exact round-trip)."""
    coeffs = {}
    d = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) % 3 != 0:
            raise ValueError(f"malformed coefficient line: {raw!r}")
        dim = len(tokens) // 3
        if d is None:
            d = dim
        elif d != dim:
            raise ValueError("inconsistent dimensions across lines")
        k = tuple(int(t) for t in tokens[:dim])
        vals = [float(t) for t in tokens[dim:]]
        vec = np.array(
            [complex(vals[2 * j], vals[2 * j + 1]) for j in range(dim)]
        )
        coeffs[k] = vec
    if d is None:
        raise ValueError("empty field text")
    return FourierField(d=d, coeffs=coeffs)
