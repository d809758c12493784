"""End-to-end acceptance checks.

One test per criterion, each ending in a single PASS line.  Two published
numbers are not what their source says they are; the tests pin the proven
values and keep checking the published numbers for what they are:

* criterion 2: the published sup rows for n = 5 and n = 10 (64.455 and 2048.0
  at (1,1,0)) are only the |k|^2 = 2 shell maxima.  The sup sits at (2,1,0);
  its expected value comes from the exact-rational oracle (tests/oracles.py,
  also behind test_sums.test_high_order_maximum_sits_at_210), and the
  published values are asserted as the shell maxima.
* criterion 6: the two-mode d = 2 pair attains 2^((n-1)/2)/(2 pi), derived
  here from the projection algebra; the published closed form
  2^(n/2) sqrt(2 - sqrt 2)/(2 pi) is asserted to lie strictly above it.

What stays open: ``advbounds table`` still marks the n = 5 and n = 10 rows
``mismatch`` against GOLDEN_TABLE and exits 1, and the certificate's
``K_minus(2, n)`` still reports the published closed form, which no shipped
pair attains (README "Known deviations").
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import advbounds.kernel as kernel_mod
from advbounds.certify import asymptotic_upper, build_asymptotic_model, certify_bounds
from advbounds.cli import (
    GOLDEN_TABLE,
    certificate_report,
    ratio_truncated,
    round_sig_down,
    round_sig_up,
)
from advbounds.fields import (
    FourierField,
    advect,
    leray_project,
    lower_bound_witness,
    sobolev_norm,
)
from advbounds.kernel import remainder_extrema, remainder_majorant, remainder_values
from advbounds.lattice import enumerate_canonical
from advbounds.sums import K_m, SumConfig
from advbounds.tail import delta_K, wedge_power_bound
from oracles import (
    is_divergence_free,
    kk_direct,
    km_exact,
    signed_permutations,
    wedge_norm_sq,
)

ORDERS = (2, 3, 4, 5, 10)

#: Published d = 3 search rows: n -> (sup, argmax, delta_K).  The n = 5 and
#: n = 10 rows are the |k|^2 = 2 shell maxima, not the sup (criterion 2).
PUBLISHED_SUP = {
    2: (22.0223, (9, 9, 9), 5.6857),
    3: (25.3013, (2, 1, 1), 0.45296),
    4: (48.0382, (2, 1, 0), 0.021561),
    5: (64.455, (1, 1, 0), 0.0012414),
    10: (2048.0, (1, 1, 0), 2.1401e-09),
}

#: Proven argmax where the published row is only a shell maximum.
TRUE_ARGMAX = {5: (2, 1, 0), 10: (2, 1, 0)}

#: Published d = 2 witness value 2^(n/2) sqrt(2 - sqrt 2)/(2 pi), which the
#: two-mode pair does not attain (criterion 6).
PUBLISHED_WITNESS_D2 = {
    n: 2.0 ** (n / 2.0) * math.sqrt(2.0 - math.sqrt(2.0)) / (2.0 * math.pi)
    for n in (2, 3)
}


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


@pytest.fixture(scope="module")
def production_certs():
    certs = {}
    for n in ORDERS:
        rho = 20.0 if n == 2 else 10.0
        start = time.perf_counter()
        certs[n] = certify_bounds(3, n, rho)
        elapsed = time.perf_counter() - start
        limit = 300.0 if n == 2 else 30.0
        assert elapsed < limit, f"n={n} took {elapsed:.1f}s (limit {limit}s)"
    return certs


#: The benchmark's expected reports, certificate_report minus runtime_ms, of
#: its seven certify cases; read only.
BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_reports_match_the_bench_reference(production_certs):
    """certificate_report, minus runtime_ms, is byte for byte the benchmark's
    reference on all seven bench cases: the five d = 3 rows, d = 4 n = 3 and
    d = 2 n = 2."""
    reference = json.loads(BENCH_REFERENCE.read_text(encoding="utf-8"))
    certs = [*production_certs.values(), certify_bounds(4, 3, 10.0),
             certify_bounds(2, 2, 10.0)]
    reports = {}
    for cert in certs:
        report = certificate_report(cert)
        del report["runtime_ms"]
        reports[f"d={cert.d} n={cert.n:g} rho={cert.rho:g}"] = report
    assert reports.keys() == reference.keys()
    for case, want in reference.items():
        assert json.dumps(reports[case]) == json.dumps(want), case
    print(f"BENCH REFERENCE: PASS ({len(reference)} cases)")


def test_search_stops_where_the_far_bound_closes(production_certs):
    """The search's work counter: the bench cases search the reps below the
    smallest |k| = sqrt(m) whose far bound closes, 217, 210, 206 and 186 of
    898 for the d = 3 rows n = 3, 4, 5, 10 at rho = 10, 4,909 of 6,363 at
    n = 2, rho = 20 and 903 of 3,347 at d = 4.  The ladder 2 rho (0.55,
    0.60, ..., 1) searched 223, 5,488 and 964."""
    limits = {2: 4909, 3: 217, 4: 210, 5: 206, 10: 186}
    for n, cert in production_certs.items():
        assert cert.diagnostics["canonical_candidates"] <= limits[n], n
    assert certify_bounds(4, 3, 10.0).diagnostics["canonical_candidates"] <= 903
    print("SEARCH WORK: PASS")


def test_criterion_1_reference_table(production_certs):
    """Rounded table values match the reference wherever the underlying sup
    enclosure matches the published criterion-2 row (its stated proviso)."""
    lines = []
    for n in ORDERS:
        cert = production_certs[n]
        km = round_sig_down(cert.K_minus)
        kp = round_sig_up(cert.K_plus)
        ratio = ratio_truncated(km, kp)
        golden = GOLDEN_TABLE[n]
        assert km == golden[0], f"n={n}: K_minus {km} != reference {golden[0]}"
        if rel(cert.sup_Km, PUBLISHED_SUP[n][0]) < 1e-4:
            assert kp == golden[1], f"n={n}: K_plus {kp} != reference {golden[1]}"
            assert ratio == golden[2], f"n={n}: ratio {ratio} != {golden[2]}"
            lines.append(f"  n={n}: {km} {kp} {ratio} (full row verified)")
        else:
            lines.append(
                f"  n={n}: {km} [{kp}] [{ratio}] (K_minus verified; K_plus "
                f"proviso unmet, sup enclosure differs - see criterion 2)"
            )
    print("CRITERION 1: PASS\n" + "\n".join(lines))


def test_criterion_2_search_results(production_certs):
    """Sup, argmax and delta_K of each d = 3 row.

    For n = 5 and 10 the expected sup is the exact-rational value of the
    defining sum at (2,1,0), and the published (1,1,0) value must be the
    |k|^2 = 2 shell maximum: (1,1,0) is the only canonical rep of that shell,
    and the exact sum and K_m at (1,1,0) both confirm the value."""
    shell_2 = [k for k in enumerate_canonical(3, 20.0)
               if sum(c * c for c in k) == 2]
    assert shell_2 == [(1, 1, 0)]
    lines = []
    for n in ORDERS:
        cert = production_certs[n]
        published, published_argmax, dk_ref = PUBLISHED_SUP[n]
        if n in TRUE_ARGMAX:
            argmax = TRUE_ARGMAX[n]
            sup = float(km_exact(argmax, 3, n, 10.0))
            shell_max = float(km_exact(published_argmax, 3, n, 10.0))
            assert rel(shell_max, published) < 1e-4, (n, shell_max, published)
            assert shell_max < sup, (n, shell_max, sup)
            got = K_m(published_argmax, SumConfig.create(3, n, 10.0))
            assert rel(got, published) < 1e-4, (
                f"n={n}: |k|^2 = 2 shell maximum {got} != published {published}"
            )
            assert rel(cert.sup_Km, sup) < 1e-12, (
                f"n={n}: sup K_m {cert.sup_Km} != exact {sup}"
            )
            lines.append(
                f"  n={n}: sup {cert.sup_Km:.6f} at {cert.argmax} (exact); "
                f"published {published} is the |k|^2 = 2 shell maximum"
            )
        else:
            argmax = published_argmax
            assert rel(cert.sup_Km, published) < 1e-4, (
                f"n={n}: sup K_m {cert.sup_Km} != published {published}"
            )
            lines.append(f"  n={n}: sup {cert.sup_Km:.6f} at {cert.argmax}")
        assert cert.argmax == argmax, f"n={n}: argmax {cert.argmax} != {argmax}"
        assert rel(cert.diagnostics["delta_k"], dk_ref) < 1e-4, (
            f"n={n}: delta_K {cert.diagnostics['delta_k']} != {dk_ref}"
        )
    print("CRITERION 2: PASS\n" + "\n".join(lines))


def test_criterion_3_remainder_extrema():
    """The grid enclosure of R_n6, which the staged benchmark's V model
    takes; certify_bounds bounds the remainder per shell instead."""
    want = {2: (-22.720, 73.835), 5: (-264.44, 7252.9), 10: (-2582.5, 4.6371e6)}
    for n, (mu_ref, m_ref) in want.items():
        ex = remainder_extrema(n, 6)
        assert rel(ex.mu, mu_ref) < 1e-3, (n, ex.mu)
        assert rel(ex.M, m_ref) < 1e-3, (n, ex.M)
    print("CRITERION 3: PASS — remainder extrema at n=2,5,10 within 0.1%")


def _grid_model(n, rho=10.0):
    """The d = 3, t = 6 model on the grid enclosure, and its far bound at
    the search radius 2 rho, as the staged benchmark builds them."""
    model = build_asymptotic_model(SumConfig.create(3, n, rho), 6,
                                   remainder_extrema(n, 6))
    return model, asymptotic_upper(model, 2.0 * rho)


def test_criterion_4_asymptotic_expansion(production_certs):
    """The pins are the grid model's, read from remainder_extrema and
    build_asymptotic_model.  Each certificate shares its z and Q extrema,
    and its per-shell far bound, at the radius its search stopped at, lies
    below the searched max."""
    model2, far2 = _grid_model(2, 20.0)
    assert rel(model2.z, 21.204) < 1e-4
    assert rel(model2.q_upper[2], 598.27) < 1e-4
    assert rel(model2.q_upper[4], 1.1506e5) < 1e-4
    assert rel(model2.V, 1.1794e9) < 1e-4
    assert far2 <= 21.912
    _, far4 = _grid_model(4)
    assert far4 <= 9.6152
    model5, far5 = _grid_model(5)
    assert rel(model5.z, 8.5682) < 1e-4
    assert rel(model5.q_upper[2], 186.23) < 1e-4
    assert rel(model5.q_upper[4], 919.89) < 1e-4
    assert rel(model5.V, 2.2152e5) < 1e-4
    assert rel(far5, 9.0430) < 1e-4
    for n, model in ((2, model2), (5, model5)):
        diag = production_certs[n].diagnostics
        assert (diag["z_n"], diag["q_upper"]) == (model.z, model.q_upper), n
    for n, far in ((2, far2), (4, far4), (5, far5)):
        cert = production_certs[n]
        assert max(far, cert.asymptotic_bound) <= cert.sup_Km, n
    print("CRITERION 4: PASS — expansion coefficients and outer bounds check out")


CASES_3D = [
    (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 0), (2, 1, 1), (3, 2, 1),
    (4, 0, 0), (5, 3, 1), (7, 1, 0), (7, 7, 7), (9, 4, 1), (10, 0, 0),
    (11, 7, 2), (12, 8, 4),
]
CASES_2D = [
    (1, 0), (1, 1), (2, 1), (3, 2), (5, 0), (5, 5), (7, 3), (8, 1),
    (9, 5), (10, 2), (11, 6), (12, 4), (13, 3), (14, 1),
]
CASES_4D = [
    (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1), (2, 1, 0, 0), (2, 2, 1, 0),
    (3, 1, 1, 0), (4, 2, 1, 1), (5, 0, 0, 0), (6, 3, 1, 0), (7, 2, 2, 1),
    (8, 4, 0, 0), (9, 3, 1, 1), (10, 5, 2, 0), (12, 3, 2, 1),
]


def test_criterion_5_interval_oracle_sandwich():
    """K_m <= KK <= K_m + delta_K at sampled k, with KK enclosed directly."""
    start = time.perf_counter()
    jobs = [
        (SumConfig.create(3, 2, 5.0), 41.0, CASES_3D),
        (SumConfig.create(3, 3, 5.0), 41.0, CASES_3D),
        (SumConfig.create(2, 2, 5.0), 41.0, CASES_2D),
        (SumConfig.create(4, 3, 4.5), 36.0, CASES_4D),
    ]
    checked = 0
    for cfg, radius, cases in jobs:
        dk = delta_K(cfg.d, cfg.n, float(cfg.rho))
        for k in cases:
            lower, upper = kk_direct(k, cfg.d, cfg.n, cfg.rho, radius)
            km = K_m(k, cfg)
            assert lower <= upper
            assert km <= upper, (cfg.d, cfg.n, k, km, lower, upper)
            assert lower <= km + dk, (cfg.d, cfg.n, k, km, lower, upper)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f}s"
    print(
        f"CRITERION 5: PASS — {checked} sandwich checks across "
        f"(d,n) = (3,2),(3,3),(2,2),(4,3) in {elapsed:.1f}s"
    )


def test_criterion_6_witness_values():
    failures = []
    lines = []
    for d, n in [(3, 2), (3, 3), (3, 5), (4, 3), (5, 2)]:
        beta_vec = tuple([1.0] + [0.0] * (d - 3))
        got = lower_bound_witness(d, n, 1.0, (0.0,) * (d - 2), 0.0, beta_vec)
        want = 2.0 ** (n / 2.0) * (2.0 * math.pi) ** (-d / 2.0)
        if rel(got, want) < 1e-10:
            lines.append(f"  d={d} n={n}: {got:.12f} == 2^(n/2) (2 pi)^(-d/2)")
        else:
            failures.append(f"d={d} n={n}: {got!r} != {want!r}")
    # d = 2: the output sits at modes (+-1, +-1) and is parallel to
    # (beta, 0) = e1.  Projecting orthogonally to k = (1, 1) keeps the squared
    # norm |e1 - (e1.k/|k|^2) k|^2 = 1/2 of the ratio^2 = 2^n/(2 pi)^2, so
    # ratio = 2^((n-1)/2)/(2 pi).  The published factor 2 - sqrt 2 is
    # |e1 - (e1.k_hat) k|^2, which mixes the unit and the unnormalised k.
    e1, k = np.array([1.0, 0.0]), np.array([1.0, 1.0])
    kept = e1 - (e1 @ k) / (k @ k) * k
    kept_sq = float(kept @ kept)
    assert kept_sq == 0.5
    for n in (2, 3):
        got = lower_bound_witness(2, n, 1.0, (), 1.0, ())
        want = 2.0 ** ((n - 1) / 2.0) / (2.0 * math.pi)
        published = PUBLISHED_WITNESS_D2[n]
        if rel(got, want) < 1e-10 and got < published:
            lines.append(
                f"  d=2 n={n}: {got:.12f} == 2^((n-1)/2)/(2 pi) < published "
                f"{published:.12f}"
            )
        else:
            failures.append(
                f"d=2 n={n}: end-to-end ratio {got!r}, want {want!r} "
                f"strictly below published {published!r}"
            )
    if failures:
        print("CRITERION 6: FAIL\n" + "\n".join(lines))
        pytest.fail("witness clauses failing:\n  " + "\n  ".join(failures))
    print("CRITERION 6: PASS\n" + "\n".join(lines))


def _random_real_field(rng, d, span=2, n_modes=4):
    partial = {}
    while len(partial) < n_modes:
        k = tuple(int(x) for x in rng.integers(-span, span + 1, size=d))
        if any(k) and tuple(-x for x in k) not in partial:
            partial[k] = rng.normal(size=d) + 1j * rng.normal(size=d)
    return FourierField.build(d, partial)


def test_criterion_7_invariant_properties(production_certs):
    rng = np.random.default_rng(20260823)

    # (a) bitwise orbit symmetry of the cutoff sum
    cfg = SumConfig.create(3, 2, 5.0)
    sym_checks = 0
    for rep in enumerate_canonical(3, 8.0):
        base = K_m(rep, cfg)
        for img in signed_permutations(rep):
            assert K_m(img, cfg) == base
            sym_checks += 1

    # (b) wedge quadratic identity, exact in small integers
    for _ in range(500):
        d = int(rng.integers(2, 5))
        p = rng.integers(-30, 31, size=d)
        q = rng.integers(-30, 31, size=d)
        assert wedge_norm_sq(p, q) + float(p @ q) ** 2 == float(p @ p) * float(q @ q)

    # (c) wedge power inequality, 1000 random vector pairs
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        p = rng.normal(size=d)
        q = rng.normal(size=d)
        p2, q2 = float(p @ p), float(q @ q)
        s = p + q
        lhs = max(p2 * q2 - float(p @ q) ** 2, 0.0) * float(s @ s) ** n
        rhs = wedge_power_bound(n) * p2 * q2 * (p2**n + q2**n)
        assert lhs <= rhs * (1.0 + 1e-12)

    # (d) 10^4 remainder samples inside the grid's extrema band, and their
    # even parts below the per-shell majorant the certificates use
    ex = remainder_extrema(2, 6)
    c = rng.uniform(-1.0, 1.0, size=10_000)
    xi = rng.uniform(0.0, 0.5, size=10_000)
    vals = remainder_values(2, 6, c, xi)
    assert float(vals.min()) >= ex.mu
    assert float(vals.max()) <= ex.M
    even = (vals + remainder_values(2, 6, -c, xi)) / 2.0
    assert (even <= remainder_majorant(2, 6, xi, Fraction(1, 2))).all()

    # (e) 100 Leray projections: idempotent, orthogonal, contracting
    for _ in range(100):
        f = _random_real_field(rng, int(rng.integers(2, 5)))
        p = leray_project(f)
        assert is_divergence_free(p.coeffs)
        pp = leray_project(p)
        for k in sorted(p.coeffs):
            assert np.allclose(pp.coeffs[k], p.coeffs[k], atol=1e-13)
        assert sobolev_norm(p, 2) <= sobolev_norm(f, 2) * (1.0 + 1e-12)

    # (f) 10 mode-wise Cauchy–Schwarz checks against the interval oracle
    cfg_h = SumConfig.create(3, 2, 4.0)
    v = leray_project(_random_real_field(rng, 3))
    w = _random_real_field(rng, 3)
    proj = leray_project(advect(v, w))
    holder = 0
    for k in sorted(proj.coeffs):
        if holder == 10:
            break
        k2 = float(sum(x * x for x in k))
        lhs = k2**2 * float((np.abs(proj.coeffs[k]) ** 2).sum())
        kk_up = kk_direct(k, 3, cfg_h.n, cfg_h.rho, 25.0)[1]
        d_n = 0.0
        for h, vh in v.coeffs.items():
            g = tuple(a - b for a, b in zip(k, h))
            wg = w.coeffs.get(g)
            if wg is None:
                continue
            h2 = float(sum(x * x for x in h))
            g2 = float(sum(x * x for x in g))
            d_n += h2**2 * float((np.abs(vh) ** 2).sum()) * g2**3 * float(
                (np.abs(wg) ** 2).sum()
            )
        assert lhs <= (2.0 * math.pi) ** -3.0 * kk_up * d_n * (1.0 + 1e-9)
        holder += 1
    assert holder == 10
    print(
        f"CRITERION 7: PASS — {sym_checks} orbit, 500 identity, 1000 wedge, "
        f"10000 remainder, 100 Leray, {holder} mode-wise checks"
    )


def test_criterion_8_deterministic_reports(monkeypatch):
    reports = []
    for threads in (1, 1, 4):
        monkeypatch.setattr(kernel_mod, "_cpu_workers", lambda: threads)
        cert = certify_bounds(3, 3, 10.0)
        rep = certificate_report(cert)
        rep.pop("runtime_ms")
        reports.append(rep)
    assert reports[0] == reports[1], "repeated runs differ beyond runtime_ms"
    assert reports[0] == reports[2], "thread count changed certified values"
    # byte-level: identical serialization too
    import json

    assert json.dumps(reports[0]) == json.dumps(reports[2])
    print("CRITERION 8: PASS — reports identical across reruns and thread counts")
