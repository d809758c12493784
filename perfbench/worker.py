"""One fresh benchmark process: import advbounds cold, run one pass, report.

Usage (from run.py, never by hand):

    python3 perfbench/worker.py <spawn_time>  < task.json

<spawn_time> is the parent's CLOCK_MONOTONIC reading taken just before the
process was started, so ``setup_s`` spans interpreter start-up plus
``import advbounds`` -- what a CLI user pays on every invocation.  The task
arrives as JSON on stdin; the result leaves as one JSON object on stdout.

Modes:

  probe    import advbounds and report the set-up time only
  cli      certify operations through ``advbounds.cli.main`` (``--format json``)
  staged   certify_bounds' stage sequence re-executed through the public
           functions, one span per stage (traced runs only)
  fields   trial-pair ratios through advect / leray_project / sobolev_norm
"""

import sys
import time

import advbounds  # noqa: F401  (the set-up being measured)

_IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from time import perf_counter  # noqa: E402

from advbounds import certify, cli, fields, sums  # noqa: E402
from advbounds.certify import (  # noqa: E402
    AsymptoticModel,
    BoundCertificate,
    InconclusiveSearchRadius,
    K_minus,
    asymptotic_upper,
    search_sup_Km,
)
from advbounds.kernel import remainder_extrema  # noqa: E402
from advbounds.sums import (  # noqa: E402
    Interval,
    SumConfig,
    Z_n,
    build_Q,
    extremize_Q,
    vV_nt,
)
from advbounds.tail import delta_K  # noqa: E402

import oracle  # noqa: E402


class Tracer:
    """Nested wall-clock spans recorded from outside the program.

    Each span adds its duration to its parent's child time, so a span's self
    time is its total minus the time its child spans cover.  Totals, child
    times, call counts and item counts are kept per span name.  A disabled
    tracer records nothing and costs one shared no-op context per span.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = Counter()
        self.items = Counter()
        self._stack = []
        self._null = contextlib.nullcontext()

    def span(self, name):
        return self._span(name) if self.enabled else self._null

    @contextlib.contextmanager
    def _span(self, name):
        self._stack.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.child[name] += self._stack.pop()
            self.total[name] += elapsed
            self.calls[name] += 1
            if self._stack:
                self._stack[-1] += elapsed

    def self_s(self, name):
        return self.total[name] - self.child[name]

    @contextlib.contextmanager
    def patched(self, owner, attr, name, size=None):
        """Time every call of owner.attr as span `name` while the block runs.

        `size(result)` is added to the span's item count when given.  The
        original attribute (a classmethod descriptor included) is restored on
        exit.
        """
        original = inspect.getattr_static(owner, attr)
        target = getattr(owner, attr)

        def timed(*args, **kwargs):
            with self.span(name):
                result = target(*args, **kwargs)
            if size is not None:
                self.items[name] += size(result)
            return result

        setattr(owner, attr, timed)
        try:
            yield
        finally:
            setattr(owner, attr, original)


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


# --------------------------------------------------------------------------
# cli mode


def _certify_argv(case):
    d, n, rho = case
    return ["certify", "--d", str(d), "--n", str(n), "--rho", repr(float(rho)),
            "--format", "json"]


def cli_op(case, trace):
    """One certificate through the CLI.

    Untraced, only the certificate object is captured (for the invariants
    the JSON report leaves out).  Traced, the stages certify_bounds calls
    are timed as spans as well, which yields the self time of
    certify_bounds and of the CLI around it.
    """
    tr = Tracer(enabled=trace)
    captured = []
    inner = cli.certify_bounds

    def capture(*args, **kwargs):
        with tr.span("certify.certify_bounds"):
            cert = inner(*args, **kwargs)
        captured.append(cert)
        return cert

    out = io.StringIO()
    result = {"case": list(case)}
    with contextlib.ExitStack() as stack:
        stack.callback(setattr, cli, "certify_bounds", inner)
        cli.certify_bounds = capture
        if trace:
            for owner, attr in (
                (SumConfig, "create"),
                (certify, "remainder_extrema"),
                (certify, "build_asymptotic_model"),
                (certify, "search_sup_Km"),
                (certify, "asymptotic_upper"),
                (certify, "delta_K"),
                (certify, "K_minus"),
                (certify, "enumerate_canonical"),
            ):
                stack.enter_context(tr.patched(owner, attr, f"stage.{attr}"))
        start = perf_counter()
        try:
            with tr.span("cli.main"), contextlib.redirect_stdout(out):
                code = cli.main(_certify_argv(case))
        except (Exception, SystemExit) as exc:
            result["error"] = _error(exc)
            return result
        result["seconds"] = perf_counter() - start
    if code != 0 or len(captured) != 1:
        result["error"] = f"exit code {code}, {len(captured)} certificates"
        return result
    cert = captured[0]
    result["report"] = json.loads(out.getvalue())
    result["asymptotic_bound"] = cert.asymptotic_bound
    if trace:
        result["certify_bounds_s"] = tr.total["certify.certify_bounds"]
        result["certify_self_s"] = tr.self_s("certify.certify_bounds")
        result["cli_self_s"] = tr.self_s("cli.main")
    return result


# --------------------------------------------------------------------------
# staged mode


def staged_certificate(tr, d, n, rho, t=6):
    """certify_bounds' stage sequence, one public call per span.

    Mirrors certify_bounds with its default search radius 2*rho and the
    thread count the CLI uses (1); returns (certificate, config, margins).
    """
    nf, rf = float(n), float(rho)
    search_radius = 2.0 * rf
    with tr.span("staged"):
        with tr.patched(sums, "enumerate_ball", "lattice.enumerate_ball"), \
                tr.span("sums.SumConfig.create"):
            cfg = SumConfig.create(d, nf, rho)
        tracemalloc.start()
        try:
            with tr.span("kernel.remainder_extrema"):
                extrema = remainder_extrema(nf, t)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with tr.span("sums.Z_n"):
            model = AsymptoticModel(z=Z_n(cfg), t=t, rho=float(cfg.rho))
        for ell in range(2, t, 2):
            with tr.span(f"sums.build_Q.l{ell}"):
                q = build_Q(cfg, ell)
            with tr.span(f"sums.extremize_Q.l{ell}"):
                lo, hi, arg = extremize_Q(q)
            model.q_lower[ell], model.q_upper[ell], model.q_argmax[ell] = lo, hi, arg
        with tr.span("sums.vV_nt"):
            model.v, model.V = vV_nt(cfg, t, extrema)
        with tr.patched(certify, "enumerate_canonical", "lattice.enumerate_canonical",
                        size=len), \
                tr.patched(certify, "K_m", "sums.K_m"), \
                tr.span("certify.search_sup_Km"):
            sup_km, argmax, _ = search_sup_Km(cfg, search_radius, threads=1)
        with tr.span("certify.asymptotic_upper"):
            far_bound = asymptotic_upper(model, float(search_radius))
        if far_bound > sup_km:
            raise InconclusiveSearchRadius(
                f"asymptotic bound {far_bound!r} exceeds searched maximum {sup_km!r}"
            )
        with tr.span("tail.delta_K"):
            dk = delta_K(d, nf, rho)
        upper = sup_km + dk
        k_plus = (2.0 * math.pi) ** (-d / 2.0) * math.sqrt(upper)
        with tr.span("certify.K_minus"):
            k_minus = K_minus(d, nf)
    cert = BoundCertificate(
        d=d, n=nf, rho=rf, t=t, sup_Km=sup_km,
        argmax=tuple(int(c) for c in argmax),
        sup_KK_interval=Interval(sup_km, upper),
        K_plus=k_plus, K_minus=k_minus,
        search_radius=float(search_radius), asymptotic_bound=far_bound,
        diagnostics={"delta_k": dk, "z_n": model.z,
                     "runtime_ms": tr.total["staged"] * 1000.0},
    )
    margins = {
        "ball_points": len(cfg.ball),
        "remainder_extrema_peak_mb": peak_bytes / 2**20,
        "remainder_width_rel": max(extrema.mu_width, extrema.M_width) / abs(extrema.M),
        "gate_slack_rel": (sup_km - far_bound) / sup_km,
        "delta_rel": dk / sup_km,
    }
    return cert, cfg, margins


def staged_op(case, threads_check):
    tr = Tracer()
    d, n, rho = case
    result = {"case": list(case)}
    try:
        cert, cfg, margins = staged_certificate(tr, d, n, rho)
        if threads_check:
            sr = 2.0 * float(rho)
            with tr.span("threads2"):
                two = search_sup_Km(cfg, sr, threads=2)
            if (two[0], tuple(two[1])) != (cert.sup_Km, cert.argmax):
                result["error"] = f"threads=2 search gave {two[:2]}"
            margins["threads_speedup"] = (
                tr.total["certify.search_sup_Km"] / tr.total["threads2"]
            )
    except Exception as exc:  # reported as a failed operation
        result["error"] = _error(exc)
        return result
    result["report"] = cli.certificate_report(cert)
    result["margins"] = margins
    result["total"] = dict(tr.total)
    result["calls"] = dict(tr.calls)
    result["items"] = dict(tr.items)
    return result


# --------------------------------------------------------------------------
# fields mode


def _field(d, modes):
    return fields.FourierField.build(
        d, {tuple(k): [complex(re, im) for re, im in c] for k, c in modes}
    )


def _pair(op):
    d = op["d"]
    if "shipped" in op:
        if d == 2:
            return fields.trial_pair(2, 1.0, (), 1.0, ())
        return fields.trial_pair(d, 1.0, (0j,) * (d - 2), 0j,
                                 (1.0,) + (0j,) * (d - 3))
    return _field(d, op["v"]), _field(d, op["w"])


def fields_op(op, trace):
    """One trial-pair ratio ||P(v.grad w)||_n / (||v||_n ||w||_{n+1}).

    Only the ratio is timed; the FFT oracle check runs afterwards.
    """
    tr = Tracer(enabled=trace)
    n = op["n"]
    result = {"d": op["d"]}
    try:
        v, w = _pair(op)
        start = perf_counter()
        with tr.span("fields.advect"):
            adv = fields.advect(v, w)
        with tr.span("fields.leray_project"):
            proj = fields.leray_project(adv)
        with tr.span("fields.sobolev_norm"):
            num = fields.sobolev_norm(proj, n)
            den = fields.sobolev_norm(v, n) * fields.sobolev_norm(w, n + 1.0)
        ratio = num / den
        result["seconds"] = perf_counter() - start
        result["ratio"] = ratio
        result["ratio_ref"], problem = oracle.check_pair(v, w, adv, ratio, n,
                                                         shipped="shipped" in op)
        if problem:
            result["error"] = problem
    except Exception as exc:  # reported as a failed operation
        result["error"] = _error(exc)
        return result
    result["products"] = len(v.coeffs) * len(w.coeffs)
    result["total"] = dict(tr.total)
    return result


# --------------------------------------------------------------------------


def main():
    setup_s = _IMPORTED_AT - float(sys.argv[1])
    task = json.load(sys.stdin)
    mode = task["mode"]
    if mode == "probe":
        ops = []
    elif mode == "cli":
        ops = [cli_op(tuple(c), task["trace"]) for c in task["cases"]]
    elif mode == "staged":
        ops = [staged_op(tuple(c), task["threads"]) for c in task["cases"]]
    elif mode == "fields":
        ops = [fields_op(op, task["trace"]) for op in task["ops"]]
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0, "ops": ops},
              sys.stdout)


if __name__ == "__main__":
    main()
