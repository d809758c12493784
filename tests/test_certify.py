import math
import os
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import advbounds
import advbounds.certify as certify_mod
import advbounds.sums as sums_mod
from advbounds.certify import (
    ParameterError,
    K_minus,
    asymptotic_upper,
    build_asymptotic_model,
    certify_bounds,
    search_sup_Km,
)
from advbounds.kernel import remainder_extrema
from advbounds.lattice import (
    CANONICAL_BUDGET,
    PointBudgetExceeded,
    enumerate_ball,
    enumerate_canonical,
    max_norm_sq_inside,
)
from advbounds.sums import K_m, SumConfig, _FoldedTerms, _fold, _power_table, build_Q
from conftest import rel_err
from oracles import is_canonical, sphere_eval

DIAG_KEYS = {
    "delta_k",
    "z_n",
    "shell_maxima",
    "points_in_ball",
    "canonical_candidates",
    "remainder_mu",
    "remainder_M",
    "remainder_mu_width",
    "remainder_M_width",
    "q_upper",
    "q_lower",
    "v_lower",
    "V_upper",
    "runtime_ms",
}


def test_search_reference_values():
    best, k, profile = search_sup_Km(SumConfig.create(3, 3, 10.0), 20.0)
    assert rel_err(best, 25.30131459931683) < 1e-12
    assert k == (2, 1, 1)
    assert profile[6] == best  # |k|^2 = 6 shell carries the maximum
    best4, k4, _ = search_sup_Km(SumConfig.create(3, 4, 10.0), 20.0)
    assert rel_err(best4, 48.0382098116695) < 1e-12
    assert k4 == (2, 1, 0)


@pytest.mark.parametrize(
    "n,want,argmax",
    [(5, 106.99081809714596, (2, 1, 0)), (10, 9556.568572305623, (2, 1, 0))],
)
def test_search_high_orders(n, want, argmax):
    # cross-checked against exact rational arithmetic in test_sums
    best, k, _ = search_sup_Km(SumConfig.create(3, n, 10.0), 20.0)
    assert rel_err(best, want) < 1e-12
    assert k == argmax


def test_search_stable_under_wider_radius():
    cfg = SumConfig.create(3, 2, 6.0)
    a = search_sup_Km(cfg, 12.0)
    b = search_sup_Km(cfg, 18.0)
    assert a[0] == b[0] == 21.85160097705368
    assert a[1] == b[1] == (3, 3, 3)


def test_search_threads_bitwise_identical():
    cfg = SumConfig.create(3, 2, 6.0)
    single = search_sup_Km(cfg, 12.0, threads=1)
    multi = search_sup_Km(cfg, 12.0, threads=4)
    assert single[0] == multi[0]
    assert single[1] == multi[1]
    assert single[2] == multi[2]


def test_search_shell_profile():
    cfg = SumConfig.create(3, 2, 6.0)
    best, k, profile = search_sup_Km(cfg, 12.0)
    assert all(isinstance(s, int) for s in profile)
    assert max(profile.values()) == best
    assert profile[sum(x * x for x in k)] == best
    assert all(v <= best for v in profile.values())
    assert set(profile) == {
        sum(x * x for x in r) for r in enumerate_canonical(3, 12.0)
    }


def reference_search(cfg, radius):
    """The plain per-rep loop: K_m at every canonical rep in lex order, the
    first strict maximum kept, each shell's maximum keyed on first sight."""
    best, best_k, profile = -math.inf, None, {}
    for k in enumerate_canonical(cfg.d, radius):
        val = K_m(k, cfg)
        s = sum(c * c for c in k)
        if s not in profile or val > profile[s]:
            profile[s] = val
        if val > best:
            best, best_k = val, k
    return best, best_k, profile


def assert_same_search(got, want):
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert list(got[2].items()) == list(want[2].items())


EQUIVALENCE_CASES = [
    (d, n, rho)
    for d, rho in ((2, 4.0), (3, 4.0), (4, 4.5))
    for n in (2, 2.5, 3, 5)
    if n > d / 2
] + [(3, 150, 4.0)]  # terms this small take the direct power, not the table


@pytest.mark.parametrize("d,n,rho", EQUIVALENCE_CASES)
def test_search_matches_per_rep_loop(d, n, rho, monkeypatch):
    cfg = SumConfig.create(d, n, rho)
    want = reference_search(cfg, 2 * rho)
    assert_same_search(search_sup_Km(cfg, 2 * rho), want)
    assert_same_search(search_sup_Km(cfg, 2 * rho, threads=2), want)
    monkeypatch.setattr(certify_mod, "_BLOCK_TERMS", 1)  # one row per block
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more workers than cores, switching often
    try:
        assert_same_search(search_sup_Km(cfg, 2 * rho, threads=3), want)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(certify_mod, "_BLOCK_TERMS", 10**9)  # one block
    assert_same_search(search_sup_Km(cfg, 2 * rho), want)


def test_search_ties_keep_lex_smallest(monkeypatch):
    # every row sums to 3, so K_m = 3 |k|^(2n) ties across each whole shell
    monkeypatch.setattr(
        certify_mod, "_FoldedTerms", lambda cfg, rows, table: np.ones_like
    )
    cfg = SumConfig.create(3, 2, 4.0)
    reps = enumerate_canonical(3, 8.0)
    top = max(sum(c * c for c in k) for k in reps)
    best, k, profile = search_sup_Km(cfg, 8.0, threads=2)
    assert k == min(r for r in reps if sum(c * c for c in r) == top)
    assert best == float(top) ** 2 * 3.0
    assert profile == {s: float(s) ** 2 * 3.0 for s in profile}


def test_power_table_size_at_the_canonical_budget():
    """The largest search enumerate_canonical accepts keeps the fold table
    under 2^22 entries: comb(c + d, d) <= CANONICAL_BUDGET allows c =
    isqrt(max |k|^2) up to 1022 at d = 2 (less for d >= 3), and rho <= R/2."""
    for d in (2, 3, 4):
        c = 0
        while math.comb(c + 1 + d, d) <= CANONICAL_BUDGET:
            c += 1
        assert c == {2: 1022, 3: 144, 4: 57}[d]
        with pytest.raises(PointBudgetExceeded):
            enumerate_canonical(d, c + 1.5)  # refused before any tuple is built
        radius = c + 1.0  # the largest radius with isqrt(max |k|^2) = c
        k2_max = max_norm_sq_inside(radius)
        h2_max = max_norm_sq_inside(radius / 2)
        assert math.isqrt(k2_max) == c
        size = k2_max + h2_max + 2 * math.isqrt(k2_max * h2_max) + 3
        assert size < 2.4e6 < 2**22


@pytest.mark.parametrize("d,n,rho", [(3, 150, 4.0), (3, 3, 5.0)])
def test_power_table_is_the_fold(d, n, rho):
    """The table holds, bit for bit, what _fold gives each |k-h|^2 alone."""
    cfg = SumConfig.create(d, n, rho)
    k2_max = max_norm_sq_inside(2 * rho)
    table = _power_table(cfg, k2_max)
    h2_max = int(cfg.ball.norm_sq.max())
    assert len(table) > k2_max + h2_max + 2 * math.isqrt(k2_max * h2_max)
    single = [_fold(cfg, np.array([float(m)]))[0] for m in range(len(table))]
    assert table.view(np.int64).tolist() == np.array(single).view(np.int64).tolist()
    assert table[0] == 0.0 and table[cfg.boundary_norm_sq + 1] > 0.0


@pytest.mark.parametrize(
    "d,n,rho", [(2, 3, 4.0), (3, 2, 6.0), (3, 5, 5.0), (4, 3, 4.5)]
)
def test_screened_interval_holds_exact_value(d, n, rho):
    cfg = SumConfig.create(d, n, rho)
    reps = enumerate_canonical(d, 2 * rho)
    k2 = [sum(c * c for c in k) for k in reps]
    table = _power_table(cfg, max(k2))
    terms = _FoldedTerms(cfg, len(reps), table)(np.array(reps, dtype=np.int64))
    scales = [float(s) ** cfg.n for s in k2]
    lo, hi = certify_mod._screen(terms, np.array(scales))
    for i, k in enumerate(reps):
        exact = K_m(k, cfg)
        assert scales[i] * math.fsum(terms[i].tolist()) == exact
        assert lo[i] <= exact <= hi[i]
        assert hi[i] - lo[i] < 1e-9 * exact


def _stub_search(monkeypatch, rows, values, threads):
    """search_sup_Km(SumConfig.create(3, 2, 4.0), 8.0) with `rows` reps to a
    piece and a stub kernel whose row for k is the one term values.get(k, 1);
    also returns the terms summed exactly, in the order they were summed."""
    cfg = SumConfig.create(3, 2, 4.0)
    summed = []

    def kernel(ks):
        return np.array([[values.get(tuple(k), 1.0)] for k in ks.tolist()])

    def exact(terms):
        summed.extend(terms[:, 0].tolist())
        return sums_mod._exact_row_sums(terms)

    monkeypatch.setattr(certify_mod, "_FoldedTerms", lambda cfg, rows, table: kernel)
    monkeypatch.setattr(certify_mod, "_BLOCK_TERMS", rows * len(cfg.ball))
    monkeypatch.setattr(certify_mod, "_exact_row_sums", exact)
    return search_sup_Km(cfg, 8.0, threads=threads), summed


def _longest_shell(d, radius):
    """The reps, in lex order, of the first shell holding the most reps."""
    by_shell = {}
    for k in enumerate_canonical(d, radius):
        by_shell.setdefault(sum(c * c for c in k), []).append(k)
    return max(by_shell.values(), key=len)


@pytest.mark.parametrize("threads", [1, 3])
def test_search_shell_max_in_its_last_piece(monkeypatch, threads):
    """One rep to a piece: the first rep's contender is summed, the middle
    reps are screened out, and the last piece raises the floor and the max."""
    shell = _longest_shell(3, 8.0)
    assert len(shell) >= 3
    m = sum(c * c for c in shell[0])
    (best, k, profile), summed = _stub_search(
        monkeypatch, 1, {shell[0]: 2.0, shell[-1]: 3.0}, threads
    )
    assert profile[m] == float(m) ** 2 * 3.0
    assert [v for v in summed if v > 1.0] == [2.0, 3.0]
    assert summed.count(1.0) == sum(
        1 for r in enumerate_canonical(3, 8.0) if sum(c * c for c in r) != m
    )


@pytest.mark.parametrize("threads", [1, 3])
def test_search_tie_across_pieces_keeps_lex_first(monkeypatch, threads):
    """Two reps to a piece: equal maxima in the first and second piece of a
    shell both get summed, and the lex-first one is the argmax."""
    shell = _longest_shell(3, 8.0)
    assert len(shell) >= 3
    m = sum(c * c for c in shell[0])
    (best, k, profile), summed = _stub_search(
        monkeypatch, 2, {shell[1]: 1e9, shell[2]: 1e9}, threads
    )
    assert best == profile[m] == float(m) ** 2 * 1e9
    assert k == shell[1]
    assert [v for v in summed if v > 1.0] == [1e9, 1e9]


@pytest.mark.parametrize("threads", [1, 3])
def test_search_batch_screens_each_shell_on_its_own_floor(monkeypatch, threads):
    """Every shell in one batch: a large term in one shell screens out only
    that shell's other reps."""
    shell = _longest_shell(3, 8.0)
    m = sum(c * c for c in shell[0])
    (best, k, profile), summed = _stub_search(
        monkeypatch, 1000, {shell[-1]: 1e9}, threads
    )
    assert profile == {s: float(s) ** 2 * (1e9 if s == m else 1.0) for s in profile}
    assert k == shell[-1]
    assert summed.count(1e9) == 1
    assert summed.count(1.0) == sum(
        1 for r in enumerate_canonical(3, 8.0) if sum(c * c for c in r) != m
    )


def test_search_radius_validation():
    cfg = SumConfig.create(3, 2, 6.0)
    with pytest.raises(ParameterError, match=r"search_radius >= 2\*rho"):
        search_sup_Km(cfg, 11.0)
    for radius in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="finite search_radius"):
            search_sup_Km(cfg, radius)


def test_asymptotic_upper_reference():
    """The pins moved with the Q extrema, now the exact extrema over the
    candidate set rounded outward instead of the upper ends of 1e-6 wide
    branch-and-bound enclosures: d=3 n=2 from 21.91097971913652 and d=3 n=4
    from 9.615042235928517, each lower by 1.6e-8 or 3.4e-8 relative."""
    cfg = SumConfig.create(3, 2, 20.0)
    model = build_asymptotic_model(cfg, 6, remainder_extrema(2, 6))
    got = asymptotic_upper(model, 40.0)
    assert rel_err(got, 21.910979374635044) < 1e-12
    assert got <= 21.912
    cfg4 = SumConfig.create(3, 4, 10.0)
    model4 = build_asymptotic_model(cfg4, 6, remainder_extrema(4, 6))
    got4 = asymptotic_upper(model4, 20.0)
    assert rel_err(got4, 9.615041907888003) < 1e-12
    assert got4 <= 9.6152


def test_asymptotic_upper_decreasing_to_Z():
    cfg = SumConfig.create(3, 2, 5.0)
    model = build_asymptotic_model(cfg, 6, remainder_extrema(2, 6))
    vals = [asymptotic_upper(model, x) for x in (10.0, 20.0, 80.0, 400.0)]
    assert vals == sorted(vals, reverse=True)
    assert rel_err(asymptotic_upper(model, 1e6), model.z) < 1e-6
    with pytest.raises(ParameterError, match=r"k_norm >= 2\*rho"):
        asymptotic_upper(model, 9.0)


def test_build_asymptotic_model_structure():
    cfg = SumConfig.create(3, 2, 5.0)
    model = build_asymptotic_model(cfg, 6, remainder_extrema(2, 6))
    assert set(model.q_upper) == set(model.q_lower) == {2, 4}
    for ell in (2, 4):
        assert model.q_lower[ell] <= model.q_upper[ell]
        # the argmax is a canonical unit vector where Q attains its upper
        # endpoint, up to the rounding of the point and of sphere_eval
        arg = model.q_argmax[ell]
        assert len(arg) == 3
        assert list(arg) == sorted(arg, reverse=True) and arg[-1] >= 0.0
        assert abs(math.fsum(a * a for a in arg) - 1.0) < 1e-12
        value = sphere_eval(build_Q(cfg, ell).terms, arg)
        top = model.q_upper[ell]
        assert top - 1e-12 * abs(top) <= value <= top + 1e-12 * abs(top)
    assert model.v <= model.V
    with pytest.raises(ParameterError, match="even t"):
        build_asymptotic_model(cfg, 5, remainder_extrema(2, 6))


def test_K_minus_values():
    assert K_minus(3, 2) == 2.0 * (2.0 * math.pi) ** -1.5
    assert rel_err(K_minus(3, 10), 2.031796349895711) < 1e-14
    # d = 2 carries the extra factor sqrt(2 - sqrt(2))
    assert rel_err(
        K_minus(2, 0), math.sqrt(2.0 - math.sqrt(2.0)) / (2.0 * math.pi)
    ) < 1e-14
    with pytest.raises(ParameterError, match="d >= 2"):
        K_minus(1, 2)


def test_certificate_structure():
    cert = certify_bounds(3, 3, 5.0)
    assert cert.d == 3 and cert.n == 3 and cert.rho == 5.0 and cert.t == 6
    assert cert.sup_KK_interval.lower == cert.sup_Km
    assert cert.sup_KK_interval.upper == cert.sup_Km + cert.diagnostics["delta_k"]
    scale = (2.0 * math.pi) ** -1.5
    assert rel_err(cert.K_plus, scale * math.sqrt(cert.sup_KK_interval.upper)) < 1e-15
    assert cert.K_minus == K_minus(3, 3)
    assert cert.K_minus < cert.K_plus
    assert cert.asymptotic_bound <= cert.sup_Km
    assert cert.search_radius == 10.0
    assert is_canonical(cert.argmax)
    assert set(cert.diagnostics) == DIAG_KEYS
    assert cert.diagnostics["points_in_ball"] == len(enumerate_ball(3, 5.0))
    assert cert.diagnostics["canonical_candidates"] == len(
        enumerate_canonical(3, 10.0)
    )
    assert cert.diagnostics["runtime_ms"] > 0.0


def test_certificate_full_pipeline_reference():
    cert = certify_bounds(3, 3, 10.0)
    assert rel_err(cert.sup_Km, 25.30131459931683) < 1e-12
    assert cert.argmax == (2, 1, 1)
    assert rel_err(cert.K_plus, 0.32222174404798404) < 1e-12
    assert rel_err(cert.K_minus, 0.17958712212516656) < 1e-12


def _strip_runtime(cert):
    diag = dict(cert.diagnostics)
    diag.pop("runtime_ms")
    return (
        cert.d,
        cert.n,
        cert.rho,
        cert.t,
        cert.sup_Km,
        cert.argmax,
        cert.sup_KK_interval,
        cert.K_plus,
        cert.K_minus,
        cert.search_radius,
        cert.asymptotic_bound,
        diag,
    )


def test_certify_deterministic_and_thread_independent(monkeypatch):
    monkeypatch.setattr(certify_mod, "_worker_count", lambda groups: 1)
    a = certify_bounds(3, 3, 5.0)
    b = certify_bounds(3, 3, 5.0)
    monkeypatch.setattr(certify_mod, "_worker_count", lambda groups: 4)
    c = certify_bounds(3, 3, 5.0)
    assert _strip_runtime(a) == _strip_runtime(b)
    assert _strip_runtime(a) == _strip_runtime(c)


def test_worker_count_from_the_machine():
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    assert certify_mod._worker_count(1) == 1
    assert certify_mod._worker_count(10**6) == min(cpus, certify_mod._MAX_WORKERS)


def test_certify_enumerates_canonical_reps_once(monkeypatch):
    calls = []

    def counted(d, radius):
        calls.append((d, radius))
        return enumerate_canonical(d, radius)

    monkeypatch.setattr(certify_mod, "enumerate_canonical", counted)
    cert = certify_bounds(3, 3, 5.0)
    assert calls == [(3, 10.0)]
    assert cert.diagnostics["canonical_candidates"] == len(enumerate_canonical(3, 10.0))


def test_certify_refuses_an_over_budget_search_before_any_stage(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a stage ran before the canonical budget check")

    monkeypatch.setattr(certify_mod, "SumConfig", SimpleNamespace(create=never))
    monkeypatch.setattr(certify_mod, "remainder_extrema", never)
    with pytest.raises(PointBudgetExceeded, match="canonical reps d=2, radius=5000.0"):
        certify_bounds(2, 2, 2500.0)


def test_t_escalation_builds_each_direction_coefficient_once(monkeypatch):
    """z and the Q_l extrema do not depend on t, so raising t from 6 to 8
    builds only Q_6; the model equals one built at t = 8 from scratch."""
    calls = []

    def counted(fn):
        def wrapped(*args):
            calls.append((fn.__name__, args[1:]))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(certify_mod, "build_Q", counted(build_Q))
    monkeypatch.setattr(certify_mod, "Z_n", counted(certify_mod.Z_n))
    cert = certify_bounds(3, 1.6, 10.0)
    assert cert.t == 8
    assert calls == [("Z_n", ()), ("build_Q", (2,)), ("build_Q", (4,)),
                     ("build_Q", (6,))]
    fresh = build_asymptotic_model(
        SumConfig.create(3, 1.6, 10.0), 8, remainder_extrema(1.6, 8)
    )
    assert cert.diagnostics["z_n"] == fresh.z
    assert list(cert.diagnostics["q_upper"].items()) == list(fresh.q_upper.items())
    assert list(cert.diagnostics["q_lower"].items()) == list(fresh.q_lower.items())
    assert cert.diagnostics["V_upper"] == fresh.V


def test_search_interrupt_stops_within_one_group_per_worker(monkeypatch):
    """An interrupt in one worker propagates, and once the search halts each
    other worker starts at most one more batch of shells.  With one row per
    piece, each batch is one shell."""
    workers, fail_at = 3, 40
    calls, halted_at = [], []

    class Halt(threading.Event):
        def set(self):
            super().set()
            if not halted_at:
                halted_at.append(len(calls))

    def kernel(ks):
        calls.append(int(ks[0] @ ks[0]))
        if len(calls) >= fail_at:
            raise KeyboardInterrupt
        return np.ones((len(ks), 7))

    monkeypatch.setattr(
        certify_mod, "threading", SimpleNamespace(Event=Halt, Lock=threading.Lock)
    )
    monkeypatch.setattr(certify_mod, "_FoldedTerms", lambda cfg, rows, table: kernel)
    monkeypatch.setattr(certify_mod, "_BLOCK_TERMS", 1)
    cfg = SumConfig.create(3, 2, 5.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.raises(KeyboardInterrupt):
            search_sup_Km(cfg, 30.0, threads=workers)
    finally:
        sys.setswitchinterval(interval)
    shells = len({sum(c * c for c in k) for k in enumerate_canonical(3, 30.0)})
    halt = halted_at[0]
    assert fail_at <= halt
    assert len(set(calls[halt:]) - set(calls[:halt])) <= workers - 1
    assert len(set(calls)) < shells


def test_certify_parameter_errors():
    assert ParameterError is advbounds.ParameterError is sums_mod.ParameterError
    with pytest.raises(ParameterError, match="integer d >= 2"):
        certify_bounds(3.0, 2, 10.0)
    with pytest.raises(ParameterError, match="n > d/2"):
        certify_bounds(3, 1, 10.0)
    with pytest.raises(ParameterError, match=r"rho > 2\*sqrt\(d\) = 3.46"):
        certify_bounds(3, 2, 3.0)


def test_inconclusive_search_radius(monkeypatch):
    """If no t brings the asymptotic bound at the search radius below the
    searched maximum, the certificate takes the larger of the two as its
    bound on sup K_m rather than silently under-reporting; the searched
    maximum stays the attained lower end."""

    def tiny_search(cfg, radius, *, threads=None):
        return certify_mod._SearchResult(0.001, (1, 0, 0), {1: 0.001}, 1)

    monkeypatch.setattr(certify_mod, "search_sup_Km", tiny_search)
    cert = certify_bounds(3, 2, 5.0)
    delta_k = cert.diagnostics["delta_k"]
    assert cert.t == 10
    assert cert.asymptotic_bound > cert.sup_Km == 0.001
    assert cert.sup_KK_interval.lower == 0.001
    assert cert.sup_KK_interval.upper == cert.asymptotic_bound + delta_k
    scale = (2.0 * math.pi) ** -1.5
    assert cert.K_plus == scale * math.sqrt(cert.sup_KK_interval.upper)
    assert set(cert.diagnostics["q_upper"]) == {2, 4, 6, 8}
