"""Command-line front end.

Subcommands:

  certify   compute a bound certificate for one or more orders n
  table     reproduce the reference d=3 constants table (with self-check)
  witness   evaluate the trial-field lower-bound ratio end to end
  sums      debug access to the raw sums (K_m, Z_n, delta_K) at a given k

Presentation rounding is asymmetric on purpose: upper bounds round up, lower
bounds round down, three significant digits, and the ratio row is truncated
(never rounded up).  JSON reports carry full-precision floats plus the rounded
strings; runtime_ms is the only field allowed to vary between identical runs.

Exit codes: 0 success, 1 invalid parameters (message names the violated
precondition) or a table row that mismatches the reference, 2 inconclusive
search radius, 3 an enclosure (remainder extrema or sphere-polynomial
extremum) that did not reach its target width within its budget.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext

from .certify import (
    InconclusiveSearchRadius,
    ParameterError,
    certify_bounds,
)
from .fields import (
    advect,
    field_to_text,
    leray_project,
    lower_bound_witness,
    trial_pair,
    witness_prediction,
)
from .kernel import EnclosureWidthError
from .lattice import PointBudgetExceeded
from .sums import K_m, SumConfig, Z_n
from .tail import delta_K

THREADS_ENV_VAR = "ADVBOUNDS_THREADS"

#: Published d=3 reference values: n -> (k_minus, k_plus, ratio), all as the
#: exact rounded strings the table must reproduce.
GOLDEN_TABLE = {
    2: ("0.126", "0.335", "0.376"),
    3: ("0.179", "0.323", "0.554"),
    4: ("0.253", "0.441", "0.573"),
    5: ("0.359", "0.510", "0.703"),
    10: ("2.03", "2.88", "0.704"),
}


def _quantize_sig(dec: Decimal, sig: int, mode) -> Decimal:
    if dec == 0:
        return Decimal(0)
    exponent = dec.adjusted() - (sig - 1)
    with localcontext() as ctx:
        ctx.prec = 50
        return dec.quantize(Decimal(1).scaleb(exponent), rounding=mode)


def round_sig_up(x: float, sig: int = 3) -> str:
    """Round up (toward +inf) to `sig` significant digits; for upper bounds."""
    return str(_quantize_sig(Decimal(repr(float(x))), sig, ROUND_CEILING))


def round_sig_down(x: float, sig: int = 3) -> str:
    """Round down (toward -inf) to `sig` significant digits; for lower bounds."""
    return str(_quantize_sig(Decimal(repr(float(x))), sig, ROUND_FLOOR))


def ratio_truncated(k_minus_rounded: str, k_plus_rounded: str, sig: int = 3) -> str:
    """Quotient of the two already-rounded strings, truncated toward zero."""
    with localcontext() as ctx:
        ctx.prec = 50
        q = Decimal(k_minus_rounded) / Decimal(k_plus_rounded)
    return str(_quantize_sig(q, sig, ROUND_FLOOR))


def default_rho(d: int, n) -> float:
    """rho = 20 for the (d=3, n=2) reference case, 10 otherwise."""
    return 20.0 if (d == 3 and float(n) == 2.0) else 10.0


def default_threads() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return 1


@dataclass
class RunConfig:
    """Parsed invocation; numeric fields left None fall back to defaults."""

    subcommand: str
    d: int = 3
    n_values: list = field(default_factory=lambda: [2])
    rho: float | None = None
    t: int = 6
    search_radius: float | None = None
    fmt: str = "human"
    out: str | None = None
    threads: int = 1
    verbosity: int = 0
    # witness-specific
    alpha: complex = 1.0 + 0.0j
    alpha_vec: tuple = ()
    beta: complex = 0.0 + 0.0j
    beta_vec: tuple = ()
    dump_fields: bool = False
    # sums-specific
    k: tuple = ()


def certificate_report(cert) -> dict:
    """JSON payload for one certificate; key order is part of the format."""
    return {
        "d": cert.d,
        "n": cert.n,
        "rho": cert.rho,
        "t": cert.t,
        "sup_km": cert.sup_Km,
        "argmax": list(cert.argmax),
        "sup_kk_lower": cert.sup_KK_interval.lower,
        "sup_kk_upper": cert.sup_KK_interval.upper,
        "k_plus": cert.K_plus,
        "k_minus": cert.K_minus,
        "delta_k": cert.diagnostics["delta_k"],
        "z_n": cert.diagnostics["z_n"],
        "k_plus_rounded": round_sig_up(cert.K_plus),
        "k_minus_rounded": round_sig_down(cert.K_minus),
        "runtime_ms": cert.diagnostics["runtime_ms"],
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _human_certificate(report: dict) -> str:
    lines = [
        f"d = {report['d']}, n = {report['n']}, rho = {report['rho']}, "
        f"t = {report['t']}",
        f"  sup K_m            = {report['sup_km']!r} at "
        f"{tuple(report['argmax'])}",
        f"  sup KK enclosure   = [{report['sup_kk_lower']!r}, "
        f"{report['sup_kk_upper']!r}]",
        f"  delta_K            = {report['delta_k']!r}",
        f"  Z_n                = {report['z_n']!r}",
        f"  K_plus  (round up) = {report['k_plus']!r}  -> "
        f"{report['k_plus_rounded']}",
        f"  K_minus (round dn) = {report['k_minus']!r}  -> "
        f"{report['k_minus_rounded']}",
        f"  runtime            = {report['runtime_ms']:.1f} ms",
    ]
    return "\n".join(lines)


def cmd_certify(config: RunConfig) -> int:
    reports = []
    for n in config.n_values:
        rho = config.rho if config.rho is not None else default_rho(config.d, n)
        if config.verbosity:
            print(
                f"certifying d={config.d} n={n} rho={rho} "
                f"t={config.t} threads={config.threads}",
                file=sys.stderr,
            )
        cert = certify_bounds(
            config.d,
            n,
            rho,
            t=config.t,
            search_radius=config.search_radius,
            threads=config.threads,
        )
        reports.append(certificate_report(cert))
    if config.fmt == "json":
        payload = reports[0] if len(reports) == 1 else reports
        _emit(json.dumps(payload, indent=2), config.out)
    elif config.fmt == "csv":
        header = ",".join(reports[0].keys())
        rows = [header]
        for rep in reports:
            rows.append(
                ",".join(
                    "" if v is None else
                    (" ".join(str(c) for c in v) if isinstance(v, list) else str(v))
                    for v in rep.values()
                )
            )
        _emit("\n".join(rows), config.out)
    else:
        _emit("\n\n".join(_human_certificate(rep) for rep in reports), config.out)
    return 0


def cmd_table(config: RunConfig) -> int:
    rows = []
    any_mismatch = False
    for n in config.n_values:
        rho = config.rho if config.rho is not None else default_rho(config.d, n)
        if config.verbosity:
            print(f"table row n={n} (rho={rho})", file=sys.stderr)
        cert = certify_bounds(
            config.d,
            n,
            rho,
            t=config.t,
            search_radius=config.search_radius,
            threads=config.threads,
        )
        km = round_sig_down(cert.K_minus)
        kp = round_sig_up(cert.K_plus)
        ratio = ratio_truncated(km, kp)
        golden = GOLDEN_TABLE.get(n) if config.d == 3 else None
        if golden is None:
            status = "-"
        elif (km, kp, ratio) == golden:
            status = "ok"
        else:
            status = "mismatch"
            any_mismatch = True
        rows.append((n, km, kp, ratio, status, golden))
    if config.fmt == "csv":
        out = ["n,k_minus,k_plus,ratio,status"]
        for n, km, kp, ratio, status, _ in rows:
            out.append(f"{n},{km},{kp},{ratio},{status}")
        _emit("\n".join(out), config.out)
    else:
        out = [f"{'n':>4}  {'K-':>8}  {'K+':>8}  {'K-/K+':>8}  status"]
        for n, km, kp, ratio, status, golden in rows:
            line = f"{n:>4}  {km:>8}  {kp:>8}  {ratio:>8}  {status}"
            if status == "mismatch" and golden:
                line += f"   (expected {golden[0]}, {golden[1]}, {golden[2]})"
            out.append(line)
        _emit("\n".join(out), config.out)
    return 1 if any_mismatch else 0


def cmd_witness(config: RunConfig) -> int:
    n = config.n_values[0]
    ratio = lower_bound_witness(
        config.d, n, config.alpha, config.alpha_vec, config.beta, config.beta_vec
    )
    predicted = witness_prediction(
        config.d, n, config.alpha, config.alpha_vec, config.beta, config.beta_vec
    )
    rel = abs(ratio - predicted) / predicted
    lines = [
        f"ratio      = {ratio!r}",
        f"predicted  = {predicted!r}",
        f"rel. diff  = {rel:.3e}",
    ]
    if config.dump_fields:
        v, w = trial_pair(
            config.d, config.alpha, config.alpha_vec, config.beta, config.beta_vec
        )
        projected = leray_project(advect(v, w))
        lines.append("")
        lines.append("# v")
        lines.append(field_to_text(v))
        lines.append("")
        lines.append("# w")
        lines.append(field_to_text(w))
        lines.append("")
        lines.append("# leray_project(advect(v, w))")
        lines.append(field_to_text(projected))
    _emit("\n".join(lines), config.out)
    return 0


def cmd_sums(config: RunConfig) -> int:
    n = config.n_values[0]
    rho = config.rho if config.rho is not None else default_rho(config.d, n)
    cfg = SumConfig.create(config.d, n, rho)
    lines = [f"d = {config.d}, n = {n}, rho = {rho}"]
    if config.k:
        lines.append(f"K_m{tuple(config.k)} = {K_m(config.k, cfg)!r}")
    lines.append(f"Z_n = {Z_n(cfg)!r}")
    lines.append(f"delta_K = {delta_K(config.d, float(n), rho)!r}")
    _emit("\n".join(lines), config.out)
    return 0


def _parse_n_list(raw: str) -> list:
    values = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        x = float(piece)
        values.append(int(x) if x.is_integer() else x)
    if not values:
        raise argparse.ArgumentTypeError("empty n list")
    return values


def _parse_complex(raw: str) -> complex:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"bad complex value {raw!r}; use re or re,im")


def _parse_complex_vec(raw: str) -> tuple:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_parse_complex(piece) for piece in raw.split(";") if piece.strip())


def _parse_int_vec(raw: str) -> tuple:
    return tuple(int(p) for p in raw.split(",") if p.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advbounds",
        description="Certified bounds for the sharp advection-inequality "
        "constant on the d-torus.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, with_n_list=True):
        p.add_argument("--d", type=int, default=3, help="dimension (default 3)")
        if with_n_list:
            p.add_argument(
                "--n",
                type=_parse_n_list,
                default=[2],
                help="order n, or comma list like 2,3,4 (default 2)",
            )
        else:
            p.add_argument("--n", type=float, default=2.0, help="order n")
        p.add_argument(
            "--rho",
            type=float,
            default=None,
            help="summation cutoff; default 10 (20 for d=3, n=2)",
        )
        p.add_argument("--t", type=int, default=6, help="expansion order (even)")
        p.add_argument(
            "--search-radius",
            type=float,
            default=None,
            help="search |k| < radius; default 2*rho",
        )
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help=f"worker threads (default ${THREADS_ENV_VAR} or 1)",
        )
        p.add_argument("--format", choices=("human", "json", "csv"), default="human")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("-v", "--verbose", action="count", default=0)

    p_cert = sub.add_parser("certify", help="compute bound certificates")
    common(p_cert)

    p_table = sub.add_parser("table", help="reproduce the d=3 constants table")
    common(p_table)
    p_table.set_defaults(n=[2, 3, 4, 5, 10])

    p_wit = sub.add_parser("witness", help="trial-field lower-bound ratio")
    common(p_wit, with_n_list=False)
    p_wit.add_argument(
        "--canonical",
        action="store_true",
        help="use the canonical extremal amplitudes (also the default)",
    )
    p_wit.add_argument("--alpha", type=_parse_complex, default=None)
    p_wit.add_argument(
        "--alpha-vec", type=_parse_complex_vec, default=None,
        help="semicolon-separated complex entries, e.g. '1,0;0,1'",
    )
    p_wit.add_argument("--beta", type=_parse_complex, default=None)
    p_wit.add_argument("--beta-vec", type=_parse_complex_vec, default=None)
    p_wit.add_argument(
        "--dump-fields",
        action="store_true",
        help="also print the trial fields and the projected advection",
    )

    p_sums = sub.add_parser("sums", help="evaluate K_m / Z_n / delta_K directly")
    common(p_sums, with_n_list=False)
    p_sums.add_argument(
        "--k", type=_parse_int_vec, default=(),
        help="lattice vector, e.g. 9,9,9",
    )
    return parser


def _canonical_amplitudes(d: int):
    """Extremal amplitudes: concentrate v transversally, w out of the plane."""
    if d == 2:
        return 1.0 + 0.0j, (), 1.0 + 0.0j, ()
    e_first = tuple([1.0 + 0.0j] + [0.0j] * (d - 3))
    return 1.0 + 0.0j, (0.0j,) * (d - 2), 0.0j, e_first


def _config_from_args(args) -> RunConfig:
    n_values = args.n if isinstance(args.n, list) else [
        int(args.n) if float(args.n).is_integer() else float(args.n)
    ]
    threads = args.threads if args.threads is not None else default_threads()
    config = RunConfig(
        subcommand=args.subcommand,
        d=args.d,
        n_values=n_values,
        rho=args.rho,
        t=args.t,
        search_radius=args.search_radius,
        fmt=args.format,
        out=args.out,
        threads=max(1, threads),
        verbosity=args.verbose,
    )
    if args.subcommand == "witness":
        alpha, avec, beta, bvec = _canonical_amplitudes(args.d)
        if not args.canonical:
            if args.alpha is not None:
                alpha = args.alpha
            if args.alpha_vec is not None:
                avec = args.alpha_vec
            if args.beta is not None:
                beta = args.beta
            if args.beta_vec is not None:
                bvec = args.beta_vec
        config.alpha, config.alpha_vec = alpha, avec
        config.beta, config.beta_vec = beta, bvec
        config.dump_fields = args.dump_fields
    if args.subcommand == "sums":
        config.k = args.k
    return config


_DISPATCH = {
    "certify": cmd_certify,
    "table": cmd_table,
    "witness": cmd_witness,
    "sums": cmd_sums,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args)
    try:
        return _DISPATCH[config.subcommand](config)
    except InconclusiveSearchRadius as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnclosureWidthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, PointBudgetExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
