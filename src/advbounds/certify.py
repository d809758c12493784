"""End-to-end certification of the advection-inequality constant.

The pipeline: a symmetry-reduced exact search for the cutoff sum's maximum
on |k| < R, an asymptotic majorant bounding K_m at and beyond R, the
enclosure

    sup K_m  <=  sup KK  <=  max(searched max, majorant at R) + delta_K,

and finally the certified constants

    K_plus  = (2 pi)^(-d/2) sqrt(max(searched max, majorant at R) + delta_K),
    K_minus = 2^(n/2) (2 pi)^(-d/2) U_d,   U_2 = sqrt(2 - sqrt(2)), U_d = 1 else.

The majorant (far_bound) holds for every R > rho: its order-t remainder is
weighted per shell (sums.remainder_term) by a proven bound on the Taylor
coefficients of the kernel (kernel.sampled_maxima).  So the search stops at
the smallest R whose t = 6 majorant lies below the max of |k| < 0.55 x 2 rho:
that radius, or else the float just below the smallest sqrt(|k|^2) of a rep
past it that closes; if none does by 2 rho, the majorant at 2 rho is rebuilt
at t = 8, then t = 10, while it lies above the searched max.  Every input
ends in a certificate or a ParameterError.
kernel.remainder_extrema's grid, G and the V model (build_asymptotic_model
with extrema, asymptotic_upper) serve the staged benchmark and the tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

# certify_bounds does not call remainder_extrema; the staged benchmark's
# tracer patches it here.
from .kernel import _Workers, remainder_extrema, round_up  # noqa: F401
from .lattice import check_canonical_budget, enumerate_canonical, max_norm_sq_inside
from .sums import (
    Interval,
    K_m,
    ParameterError,
    SumConfig,
    Z_n,
    _k_scale,
    _PairedTerms,
    _power_table,
    build_Q,
    extremize_Q,
    remainder_term,
    stabilizer_classes,
    vV_nt,
)
from .tail import check_even_t, check_parameters, delta_K


class InconclusiveSearchRadius(RuntimeError):
    """The asymptotic region is not dominated by the finite search.

    certify_bounds never raises it (it certifies the larger of the two
    instead); perfbench/worker.py's staged mode does."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


@dataclass(eq=False)
class AsymptoticModel:
    """Coefficients of the two-sided large-|k| expansion of the cutoff sum.

    For |k| >= 2 rho:

        z + sum_l q_lower[l] |k|^(-l) + v |k|^(-t)
          <= K_m(k) <=
        z + sum_l q_upper[l] |k|^(-l) + V |k|^(-t),

    l ranging over the even integers 2, 4, ..., t-2.  certify_bounds
    builds the model without extrema, so v = V = 0 there: far_bound takes
    its remainder per shell instead.
    """

    z: float
    t: int
    rho: float
    q_lower: dict = field(default_factory=dict)
    q_upper: dict = field(default_factory=dict)
    q_argmax: dict = field(default_factory=dict)
    v: float = 0.0
    V: float = 0.0


def build_asymptotic_model(cfg: SumConfig, t: int, extrema=None, prior=None):
    """Extremize each direction coefficient and assemble the sandwich, its
    remainder coefficients (v, V) from the R_nt enclosure `extrema` if given.

    z and the Q_l extrema do not depend on t: those of `prior`, a model of
    the same cfg at a smaller t, are kept, and only the new l are built."""
    check_even_t(t)
    model = AsymptoticModel(z=Z_n(cfg) if prior is None else prior.z, t=t,
                            rho=float(cfg.rho))
    for ell in range(2, t, 2):
        if prior is not None and ell in prior.q_upper:
            lo, hi, arg = prior.q_lower[ell], prior.q_upper[ell], prior.q_argmax[ell]
        else:
            lo, hi, arg = extremize_Q(build_Q(cfg, ell))
        model.q_lower[ell] = lo
        model.q_upper[ell] = hi
        model.q_argmax[ell] = arg
    if extrema is not None:
        model.v, model.V = vV_nt(cfg, t, extrema)
    return model


def _upper_head(model: AsymptoticModel, radius: float) -> float:
    """z + sum_l max(q_upper[l], 0) radius^(-l)."""
    total = model.z
    for ell in sorted(model.q_upper):
        total += max(model.q_upper[ell], 0.0) * radius ** (-ell)
    return total


def asymptotic_upper(model: AsymptoticModel, k_norm: float) -> float:
    """Upper bound for K_m on the whole region |k| >= k_norm.

    Every coefficient of the upper branch is clamped at zero, which makes the
    majorant nonincreasing in |k|; its value at k_norm therefore dominates the
    supremum over [k_norm, infinity).
    """
    _require(
        k_norm >= 2.0 * model.rho,
        f"requires k_norm >= 2*rho = {2.0 * model.rho}, got k_norm={k_norm}",
    )
    return _upper_head(model, k_norm) + max(model.V, 0.0) * k_norm ** (-model.t)


def far_bound(model: AsymptoticModel, cfg: SumConfig, radius: float) -> float:
    """Upper bound for K_m on the whole region |k| >= radius > rho:

        z + sum_l max(q_l, 0) R^(-l) + R^(-t) 2 sum_m r(m) m^((t-2n)/2) B_t(sqrt(m)/R),

    the last term sums.remainder_term, and the sum rounded up.

    Proof: for |k| >= R > rho every h in the ball has |h| < |k|, and the
    fold factor [1 + (|k-h| >= rho)] is at most 2, so K_m(k) <= 2 sum_h
    |h|^(-2n) E_n(c_h, xi_h), with c_h the cosine between h and k, xi_h =
    |h|/|k| < 1 and E_n the kernel (1 - c^2)(1 - 2 c xi + xi^2)^(-(n+1)).
    Expanded to order t, the l = 0 term sums to z and the even l < t terms
    to Q_l(k/|k|) |k|^(-l) <= max(q_l, 0) R^(-l), while the odd ones cancel
    between h and -h; so does the odd part of the order-t remainder,
    |k|^(-t) 2 sum_h |h|^(t-2n) R_nt(c_h, xi_h), which leaves its even part
    (R_nt(c, xi) + R_nt(-c, xi)) / 2 <= B_t(xi) (kernel.remainder_majorant),
    and B_t >= 0 grows with xi <= sqrt(m)/R.  Every term is nonincreasing in
    |k|, so the value at R bounds the supremum over |k| >= R.  Unlike the V
    model it needs no lower branch, and so no uniform fold: R may lie below
    2 rho.
    """
    return float(round_up(_upper_head(model, radius)
                          + remainder_term(cfg, model.t, radius)))


def _check_search_radius(search_radius, rho) -> None:
    radius = float(search_radius)
    _require(
        math.isfinite(radius),
        f"requires a finite search_radius, got search_radius={search_radius}",
    )
    _require(
        radius >= 2.0 * float(rho),
        f"requires search_radius >= 2*rho = {2.0 * float(rho)}, "
        f"got search_radius={search_radius}",
    )


#: Most orbit terms one screened block holds (rows x M), rounded down to
#: whole half-ball rows where one fits; a block holds one row at least.
_BLOCK_TERMS = 2**16

_UNIT_ROUNDOFF = 2.0**-53
#: Absolute slack of the screened bounds per ball point, in units of the row
#: sum; covers rounding in the subnormal range, where relative bounds fail.
_TINY = 2.0**-1073


def _screen(row_sums: np.ndarray, scales: np.ndarray, points: int):
    """Bounds [lo, hi] on each row's K_m value, scale * (exact sum of the
    row's N = points full-row terms, sums._folded_terms, rounded to
    nearest), from the np.sum of its at most N/2 weighted orbit terms
    (sums._PairedTerms).

    Write each rounding as fl(x) = x (1 + e) + z with |e| <= u = 2^-53,
    |z| <= 2^-1075 and e z = 0: a result in the subnormal range errs by half
    its ulp at most, and a sum of two floats that lands there is exact.  For
    a pair h, -h let c = |h^k|^2 w, w = |h|^-(2n+2), and f-, f+ the folds of
    |k -+ h|^2, given floats with f <= 1 (a doubled fold has m > rho^2 > 8);
    sums._power_table holds the very floats sums._fold gives.
    The two full-row terms fl(fl(c) f-) + fl(fl(c) f+) are c (f- + f+)
    (1 + e)^2 + z' with |z'| <= 5 * 2^-1075.  The orbit term of P over 4,
    fl(fl(4 c_P |h^k|^2 w) fl(f- + f+)) / 4, its integer product 4 c_P
    |h^k|^2 exact, is c_P c (f- + f+) (1 + e)^3 + z'' with |z''| <=
    2^-1075: it stands for the c_P pairs of P in the half ball, whose two
    full-row terms are h_P's and -h_P's bit for bit.  So the exact full-row
    sum T and the exact weighted sum P over 4 differ by a factor within
    (1 +- u)^5 and by at most 3 N 2^-1075 over the row.  For positive terms
    every summation order of np.sum errs by at most gamma_{M-1} times P,
    M <= N/2 the row's terms (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 4).  The relative slack 2 gamma_{N/2-1} + 16u covers
    those, the one rounding of T (math.fsum, in sums.K_m), of the scaling
    and of the bounds themselves; the absolute slack, scale N _TINY = 4 N
    2^-1075 per unit of scale >= 1 (|k|^2 >= 1, n > 0), covers 3 N 2^-1075
    and the few subnormal roundings of the scaled bounds, as the ball has
    N >= 4 points.  Each bound is elementwise, so one call over any rows
    gives each row the bits it would get alone.
    """
    half = points // 2
    ulps = (half - 1) * _UNIT_ROUNDOFF
    rel = 2.0 * ulps / (1.0 - ulps) + 16.0 * _UNIT_ROUNDOFF
    approx = 0.25 * scales * row_sums
    tiny = scales * (2 * half * _TINY)
    lo = approx * (1.0 - rel) - tiny
    hi = approx * (1.0 + rel) + tiny
    return np.where(np.isfinite(lo), lo, 0.0), hi


def _below_root(m: int) -> float:
    """The float below fl(sqrt(m)), which lies below sqrt(m): sqrt(m) rounds
    to fl(sqrt(m)), so it lies above the midpoint of that float and the one
    below it."""
    return math.nextafter(math.sqrt(m), 0.0)


def _closing_norm(far, floor: float, norms):
    """The index in the ascending integers `norms` of the smallest m with
    far(R_m) < floor, R_m = _below_root(m), or None if none closes: a
    bisection between a known open index -1 and a known closed index
    len(norms), in about log2(len(norms)) calls of far.  The search's proof
    rests on far(R_m) < floor at the m returned alone; where rounding leaves
    far not quite monotone in R, a smaller m may close too."""
    open_, closed = -1, len(norms)
    while closed - open_ > 1:
        mid = (open_ + closed) // 2
        if far(_below_root(norms[mid])) < floor:
            closed = mid
        else:
            open_ = mid
    return closed if closed < len(norms) else None


def _search(cfg: SumConfig, radius, far=None, threads=None):
    """Exact maximum of K_m over 0 < |k| < R.  Without `far`, R = `radius`.
    With `far`, an upper bound far(R) for K_m on |k| >= R > rho, the search
    first screens |k| < 0.55 `radius`, whose floor max(lo) is at most the
    maximum, and R is the first of these with far(R) < floor: that first
    radius; R_m = _below_root(m) for the smallest |k|^2 = m of a rep past
    the first screen (_closing_norm), which leaves the reps with |k|^2 < m;
    or `radius`, with every rep below it.

    Only canonical representatives (coordinates sorted descending,
    nonnegative) are evaluated; K_m is invariant under the signed-permutation
    group, so this loses nothing.  They are enumerated once, below `radius`.
    First the workers screen the reps below the first radius, one
    stabilizer class at a time (sums.stabilizer_classes), in lex order and
    blocks of `rows` reps (at most _BLOCK_TERMS orbit terms): each block
    writes its rows' sums of weighted orbit terms (sums._PairedTerms), and
    _screen bounds each rep's K_m(k) in [lo, hi] once the screen is done.
    The orbits of each class, and each worker's buffer, sized to the
    largest block of any class, are built once per search.  The search
    then extends once, to the reps below R: each rep left out has |k| >= R,
    so K_m(k) <= far(R) < floor, and the floor can only rise.  Then the
    calling thread sums K_m(k) exactly, over the full ball and correctly
    rounded, at each searched rep with hi >= max(lo).  A rep attaining the
    maximum M has hi >= M >= K_m(j) >= lo_j for every searched rep j, so it
    and every tie are summed, whatever the workers and their blocks.  An
    exception in a worker, or an interrupt, stops each after its current
    block and propagates before any exact sum.

    Returns (max, argmax, reps, R): the maximum, the lexicographically
    smallest rep attaining it, and the number of canonical reps searched.
    The workers of kernel._Workers take the blocks one at a time,
    `threads` of them if given, else as many as the CPUs and blocks allow.
    """
    reps = enumerate_canonical(cfg.d, radius)
    k2 = np.array([sum(c * c for c in k) for k in reps])
    ks = np.array(reps, dtype=np.int64)
    scales = np.array([_k_scale(s, cfg.n) for s in k2.tolist()])
    table = _power_table(cfg, int(k2.max()))
    first = radius if far is None else radius * 11 / 20
    top = max_norm_sq_inside(first)
    # before the screen's buffers exist, whose peak their temporaries would raise
    row_sums = np.empty(len(reps))
    lo, hi = np.full((2, len(reps)), [[-math.inf], [math.inf]])
    ends = None if far is None else (far(first), far(radius))
    kind = stabilizer_classes(ks)
    kinds, counts = (a.tolist() for a in np.unique(kind, return_counts=True))
    paired = _PairedTerms(cfg, table, kinds)
    # whole half-ball rows, where they fit: no buffer outgrows the trivial class's
    half = len(cfg.ball) // 2
    most = min(_BLOCK_TERMS, max(1, _BLOCK_TERMS // half) * half)
    rows = {c: max(1, most // paired.terms[c]) for c in kinds}
    size = max(min(rows[c], n) * paired.terms[c] for c, n in zip(kinds, counts))
    blocks = max(-(-n // rows[c]) for c, n in zip(kinds, counts))

    def screen(at):
        for c in kinds:
            members = at[kind[at] == c]
            if members.size:
                paired.load(c)
                workers.run(range(0, members.size, rows[c]),
                            partial(block, members, rows[c]))
        lo[at], hi[at] = _screen(row_sums[at], scales[at], len(cfg.ball))

    def block(members, count, i, buffer):
        j = members[i:i + count]
        row_sums[j] = paired(ks[j], buffer)

    with _Workers(partial(paired.buffer, size), blocks, threads) as workers:
        searched, stop = k2 <= top, first
        screen(np.flatnonzero(searched))
        floor = lo.max()
        if far is not None and not ends[0] < floor:
            # not np.unique: its int path imports numpy.ma (0.5 MB) here
            norms = sorted(set(k2[~searched].tolist()))
            at = _closing_norm(far, floor, norms) if ends[1] < floor else None
            more = ~searched if at is None else ~searched & (k2 < norms[at])
            stop = radius if at is None else _below_root(norms[at])
            screen(np.flatnonzero(more))
            searched |= more
    del paired  # the exact sums need none of the screen's memory
    live = np.flatnonzero(searched & (hi >= lo.max())).tolist()
    found = [(K_m(reps[i], cfg), reps[i]) for i in live]
    best = max(value for value, _ in found)
    argmax = min(k for value, k in found if value == best)
    return best, argmax, int(searched.sum()), stop


def search_sup_Km(cfg: SumConfig, search_radius, *, threads=None):
    """Exact maximum of K_m over 0 < |k| < search_radius >= 2 rho: _search
    without a far bound.  Returns (max, argmax, reps)."""
    _check_search_radius(search_radius, cfg.rho)
    return _search(cfg, search_radius, threads=threads)[:3]


def K_minus(d: int, n) -> float:
    """Closed-form lower bound for the sharp constant (round down to present)."""
    _require(d >= 2, f"requires d >= 2, got d={d}")
    u_d = math.sqrt(2.0 - math.sqrt(2.0)) if d == 2 else 1.0
    return 2.0 ** (float(n) / 2.0) * (2.0 * math.pi) ** (-d / 2.0) * u_d


@dataclass(eq=False)
class BoundCertificate:
    """Everything needed to audit one (d, n) bound computation.

    `search_radius` is the radius R the search stopped at: 0.55 x 2 rho,
    the float just below sqrt(m) for an |k|^2 = m (_search), or 2 rho.  `t`
    is the expansion order of the asymptotic model the certificate settled
    on (6, 8 or 10, the last two only at R = 2 rho), and `asymptotic_bound`
    that model's far_bound at R.  `sup_KK_interval` is [sup_Km, max(sup_Km,
    asymptotic_bound) + delta_K].
    """

    d: int
    n: float
    rho: float
    t: int
    sup_Km: float
    argmax: tuple
    sup_KK_interval: Interval
    K_plus: float
    K_minus: float
    search_radius: float
    asymptotic_bound: float
    diagnostics: dict


#: Expansion orders certify_bounds tries, in turn.  Past t = 10 at d >= 3 the
#: candidate set of extremize_Q is not proven.
_T_STEPS = (6, 8, 10)


def certify_bounds(d: int, n, rho) -> BoundCertificate:
    """Run the full pipeline and return a certificate (or raise).

    The search (_search) screens |k| < 0.55 x 2 rho and stops at the
    smallest radius R whose t = 6 far_bound lies below that screen's floor:
    0.55 x 2 rho itself, or the float just below sqrt(m) for the smallest
    |k|^2 = m of a rep past it that closes, found by bisection; then sup K_m
    is the searched max.  If no radius closes, R = 2 rho and the model is
    raised to the next t of _T_STEPS while its far bound lies above the
    searched max, keeping its z and Q_l extrema.  The certified sup KK enclosure is

        [searched max, max(searched max, far bound at R) + delta_K],

    whose lower end is attained (KK >= K_m pointwise).  Raises
    ParameterError when a precondition on (d, n, rho) fails, or, before any
    stage runs, when the search at 2 rho is over the canonical budget
    (PointBudgetExceeded).
    """
    start = time.perf_counter()
    check_parameters(d, n, rho)
    nf, rf = float(n), float(rho)
    check_canonical_budget(d, 2.0 * rf)

    cfg = SumConfig.create(d, nf, rho)
    model = build_asymptotic_model(cfg, _T_STEPS[0])
    far = partial(far_bound, model, cfg)
    sup_km, argmax, reps, radius = _search(cfg, 2.0 * rf, far)
    bound = far_bound(model, cfg, radius)
    for t in _T_STEPS[1:]:
        if bound <= sup_km:
            break
        model = build_asymptotic_model(cfg, t, prior=model)
        bound = far_bound(model, cfg, radius)

    dk = delta_K(d, nf, rho)
    upper = max(sup_km, bound) + dk
    k_plus = (2.0 * math.pi) ** (-d / 2.0) * math.sqrt(upper)
    k_minus = K_minus(d, nf)
    runtime_ms = (time.perf_counter() - start) * 1000.0

    diagnostics = {
        "delta_k": dk,
        "z_n": model.z,
        "points_in_ball": len(cfg.ball),
        "canonical_candidates": reps,
        "q_upper": dict(model.q_upper),
        "q_lower": dict(model.q_lower),
        "runtime_ms": runtime_ms,
    }
    return BoundCertificate(
        d=d,
        n=nf,
        rho=rf,
        t=model.t,
        sup_Km=sup_km,
        argmax=tuple(int(c) for c in argmax),
        sup_KK_interval=Interval(sup_km, upper),
        K_plus=k_plus,
        K_minus=k_minus,
        search_radius=radius,
        asymptotic_bound=bound,
        diagnostics=diagnostics,
    )
