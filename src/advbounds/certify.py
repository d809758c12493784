"""End-to-end certification of the advection-inequality constant.

The pipeline: a symmetry-reduced exact search for the cutoff sum's maximum on
|k| < R = 2 rho, an asymptotic majorant bounding K_m at and beyond R, the
enclosure

    sup K_m  <=  sup KK  <=  max(searched max, majorant at R) + delta_K,

and finally the certified constants

    K_plus  = (2 pi)^(-d/2) sqrt(max(searched max, majorant at R) + delta_K),
    K_minus = 2^(n/2) (2 pi)^(-d/2) U_d,   U_2 = sqrt(2 - sqrt(2)), U_d = 1 else.

The majorant is built at expansion order t = 6, and rebuilt at t = 8, then
t = 10, while it lies above the searched max; the first t at which it does
not is kept, and the max is then the searched max itself.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .kernel import remainder_extrema
from .lattice import check_canonical_budget, enumerate_canonical
from .sums import (
    Interval,
    K_m,  # noqa: F401  (the searched sum at one k, kept importable from here)
    ParameterError,
    SumConfig,
    Z_n,
    _exact_row_sums,
    _FoldedTerms,
    _k_scale,
    _power_table,
    build_Q,
    extremize_Q,
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

    l ranging over the even integers 2, 4, ..., t-2.
    """

    z: float
    t: int
    rho: float
    q_lower: dict = field(default_factory=dict)
    q_upper: dict = field(default_factory=dict)
    q_argmax: dict = field(default_factory=dict)
    v: float = 0.0
    V: float = 0.0


def build_asymptotic_model(cfg: SumConfig, t: int, extrema, prior=None):
    """Extremize each direction coefficient and assemble the sandwich.

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
    model.v, model.V = vV_nt(cfg, t, extrema)
    return model


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
    total = model.z
    for ell in sorted(model.q_upper):
        total += max(model.q_upper[ell], 0.0) * k_norm ** (-ell)
    total += max(model.V, 0.0) * k_norm ** (-model.t)
    return total


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


#: Most terms one screened piece holds per array (rows x ball points).
_BLOCK_TERMS = 2**18

_UNIT_ROUNDOFF = 2.0**-53
#: Absolute slack of the screened bounds; covers rounding in the subnormal
#: range, where the relative bounds do not hold.
_TINY = 2.0**-1070


def _screen(terms: np.ndarray, scales: np.ndarray):
    """Bounds [lo, hi] on each row's K_m value, scale * (exact row sum rounded
    to nearest), from np.sum.

    For positive terms every summation order errs by at most gamma_{N-1}
    times the exact sum (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 4).  The relative slack 2 gamma + 8u also covers the one
    rounding of the exact row sum (sums._exact_row_sums, equal to fsum), of
    the scaling and of the bounds themselves.
    """
    ulps = (terms.shape[1] - 1) * _UNIT_ROUNDOFF
    rel = 2.0 * ulps / (1.0 - ulps) + 8.0 * _UNIT_ROUNDOFF
    approx = scales * terms.sum(axis=1)
    lo = approx * (1.0 - rel) - _TINY
    hi = approx * (1.0 + rel) + _TINY
    return np.where(np.isfinite(lo), lo, 0.0), hi


#: Most workers a search starts.  On two CPUs two workers ran the search
#: 1.55x faster than one; `certify --d 3 --n 3,4,5,10`, its searches split,
#: peaked at 51-53 MB RSS with one worker, 58-59 MB with two and 80 MB with
#: four, since each worker holds its own block working set and each pool
#: thread's malloc arena keeps it.  Unmeasured on more CPUs.
_MAX_WORKERS = 2


def _worker_count(batches: int) -> int:
    """Workers for a search of `batches` batches of shells: one below 64
    batches, else the CPUs this process may run on, at most _MAX_WORKERS.  A
    CPU quota that does not restrict the affinity mask is not seen."""
    # On a 2-core VM two workers were no faster than one at 15 and 44 batches
    # (d = 3, rho = 10 and 12) and 1.6x faster at 114 (rho = 14).  One worker
    # also keeps the peak RSS from depending on which shells fell to which
    # thread: `certify` at d = 3, n = 3, 4, 5, 10 and d = 2, n = 2, rho = 10,
    # in one process, peaked at 55 MB or, in about one run of five, 64 MB.
    if batches < 64:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


class _SearchResult(tuple):
    """search_sup_Km's (max, argmax, shell_profile), with `candidates`, the
    number of canonical reps searched, for certify_bounds' diagnostics."""

    def __new__(cls, best, best_k, shell_profile, candidates):
        found = super().__new__(cls, (best, best_k, shell_profile))
        found.candidates = candidates
        return found


def search_sup_Km(cfg: SumConfig, search_radius, *, threads=None):
    """Exact maximum of K_m over 0 < |k| < search_radius.

    Only canonical representatives (coordinates sorted descending, nonnegative)
    are evaluated; K_m is invariant under the signed-permutation group, so this
    loses nothing.  They are walked in (|k|^2, lex) order, in batches of whole
    shells (consecutive shells with at most `rows` reps in all, or one longer
    shell), in pieces of at most _BLOCK_TERMS terms per array.  np.sum ranks
    each piece's rows under a proven error bound (_screen); a rep whose upper
    bound is below the largest lower bound seen so far in its shell is
    strictly below the shell's maximum.  Every other rep's row is summed by
    sums._exact_row_sums, which returns math.fsum's correctly rounded value,
    so every value reported is K_m(k) bit for bit.  Ties keep the
    lexicographically smallest canonical form.
    Returns (max, argmax, shell_profile) with shell_profile mapping |k|^2 to
    the shell's maximum, keyed in order of first appearance in lex order; its
    `candidates` attribute counts the canonical reps.

    `threads` workers (by default _worker_count's) take the batches one at a
    time, so each shell belongs to one worker and the results do not depend
    on their number.  An exception in a worker, or an interrupt, stops each
    worker after its current batch.
    """
    _check_search_radius(search_radius, cfg.rho)
    reps = enumerate_canonical(cfg.d, search_radius)
    lex_k2 = [sum(c * c for c in k) for k in reps]
    order = sorted(range(len(reps)), key=lex_k2.__getitem__)
    k2 = [lex_k2[i] for i in order]
    ks = np.array([reps[i] for i in order], dtype=np.int64)
    scales = [_k_scale(s, cfg.n) for s in k2]
    rows = max(1, _BLOCK_TERMS // len(cfg.ball))
    table = _power_table(cfg, k2[-1])

    # Small shells share a batch: per-shell calls are too short for workers to overlap.
    edges = np.flatnonzero(np.diff(k2, prepend=0, append=0)).tolist()
    batches, first = [], 0
    for a, b in zip(edges, edges[1:]):
        if b - first > rows and a > first:
            batches.append((first, a))
            first = a
    batches.append((first, len(k2)))
    pending = iter(batches)
    lock = threading.Lock()
    halt = threading.Event()

    def batch_max(start, stop, terms_of, found):
        """Set found[|k|^2] to (max, first argmax in lex order) of K_m over
        each shell of reps start:stop."""
        _, shell = np.unique(k2[start:stop], return_inverse=True)
        floor = np.full(shell[-1] + 1, -math.inf)
        for a in range(start, stop, rows):
            b = min(a + rows, stop)
            terms = terms_of(ks[a:b])
            lo, hi = _screen(terms, np.array(scales[a:b]))
            ids = shell[a - start:b - start]
            np.maximum.at(floor, ids, lo)
            for j in np.flatnonzero(hi >= floor[ids]).tolist():
                s, val = k2[a + j], scales[a + j] * _exact_row_sums(terms[j:j + 1])[0]
                if s not in found or val > found[s][0]:
                    found[s] = (val, reps[order[a + j]])

    def work(terms_of):
        """Take batches one at a time until none are left; then, or on any
        exception, halt every worker after its current batch."""
        found = {}
        try:
            while not halt.is_set():
                with lock:
                    batch = next(pending, None)
                if batch is None:
                    break
                batch_max(*batch, terms_of, found)
        finally:
            halt.set()
        return found

    # The calling thread is one of the workers, and it allocates every
    # worker's buffers: memory a pool thread's malloc arena keeps after the
    # search would add to the peak of the next certificate's stages.
    workers = _worker_count(len(batches)) if threads is None else threads
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        try:
            helpers = [
                pool.submit(work, _FoldedTerms(cfg, rows, table))
                for _ in range(workers - 1)
            ]
            found = work(_FoldedTerms(cfg, rows, table))
        finally:
            halt.set()
        for helper in helpers:
            found.update(helper.result())

    shell_profile = {s: found[s][0] for s in dict.fromkeys(lex_k2)}
    best = max(shell_profile.values())
    best_k = min(k for val, k in found.values() if val == best)
    return _SearchResult(best, best_k, shell_profile, len(reps))


def K_minus(d: int, n) -> float:
    """Closed-form lower bound for the sharp constant (round down to present)."""
    _require(d >= 2, f"requires d >= 2, got d={d}")
    u_d = math.sqrt(2.0 - math.sqrt(2.0)) if d == 2 else 1.0
    return 2.0 ** (float(n) / 2.0) * (2.0 * math.pi) ** (-d / 2.0) * u_d


@dataclass(eq=False)
class BoundCertificate:
    """Everything needed to audit one (d, n) bound computation.

    `t` is the expansion order of the asymptotic model the certificate
    settled on (6, 8 or 10), and `asymptotic_bound` that model's majorant at
    `search_radius`.  `sup_KK_interval` is [sup_Km, max(sup_Km,
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

    The search covers |k| < R = 2 rho.  The asymptotic majorant at R bounds
    K_m on |k| >= R, so sup K_m <= max(searched max, majorant at R) for every
    t; the model is raised to the next t of _T_STEPS while the majorant lies
    above the searched max, keeping its z and Q_l extrema.  The search does
    not depend on t and runs once.  The certified sup KK enclosure is

        [searched max, max(searched max, majorant at R) + delta_K],

    whose lower end is attained (KK >= K_m pointwise).  Raises ParameterError
    when a precondition on (d, n, rho) fails, and PointBudgetExceeded, before
    any stage runs, when the search at R is over the canonical budget.
    """
    start = time.perf_counter()
    check_parameters(d, n, rho)
    nf, rf = float(n), float(rho)
    search_radius = 2.0 * rf
    check_canonical_budget(d, search_radius)

    cfg = SumConfig.create(d, nf, rho)
    found = model = None
    for t in _T_STEPS:
        extrema = remainder_extrema(nf, t)
        model = build_asymptotic_model(cfg, t, extrema, model)
        if found is None:
            found = search_sup_Km(cfg, search_radius)
        far_bound = asymptotic_upper(model, search_radius)
        if far_bound <= found[0]:
            break
    sup_km, argmax, shell_profile = found

    dk = delta_K(d, nf, rho)
    upper = max(sup_km, far_bound) + dk
    k_plus = (2.0 * math.pi) ** (-d / 2.0) * math.sqrt(upper)
    k_minus = K_minus(d, nf)
    runtime_ms = (time.perf_counter() - start) * 1000.0

    diagnostics = {
        "delta_k": dk,
        "z_n": model.z,
        "shell_maxima": shell_profile,
        "points_in_ball": len(cfg.ball),
        "canonical_candidates": found.candidates,
        "remainder_mu": extrema.mu,
        "remainder_M": extrema.M,
        "remainder_mu_width": extrema.mu_width,
        "remainder_M_width": extrema.M_width,
        "q_upper": dict(model.q_upper),
        "q_lower": dict(model.q_lower),
        "v_lower": model.v,
        "V_upper": model.V,
        "runtime_ms": runtime_ms,
    }
    return BoundCertificate(
        d=d,
        n=nf,
        rho=rf,
        t=t,
        sup_Km=sup_km,
        argmax=tuple(int(c) for c in argmax),
        sup_KK_interval=Interval(sup_km, upper),
        K_plus=k_plus,
        K_minus=k_minus,
        search_radius=search_radius,
        asymptotic_bound=far_bound,
        diagnostics=diagnostics,
    )
