"""Command-line front end.

Subcommands:

  certify   compute a bound certificate for one or more orders n
  table     reproduce the reference d=3 constants table (with self-check)
  witness   evaluate the trial-field lower-bound ratio end to end

Presentation rounding is asymmetric on purpose: upper bounds round up, lower
bounds round down, three significant digits, and the ratio row is truncated
(never rounded up).  JSON reports carry full-precision floats plus the rounded
strings; runtime_ms is the only field allowed to vary between identical runs.
The sup K_m search runs its blocks on as many workers as the CPUs the
process may run on and the blocks allow (kernel._Workers), so no
flag sets them, and no report depends on them.

certify.certify_bounds picks the expansion order t and the search radius
(at most 2 rho) itself, so no flag sets either.

Every report goes to stdout.  Exit codes: 0 success, 1 a usage error,
invalid parameters (message names the violated precondition) or a table row
that mismatches the reference.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext

from .certify import certify_bounds
from .fields import (
    advect,
    field_to_text,
    leray_project,
    lower_bound_witness,
    trial_pair,
    witness_prediction,
)
from .tail import check_finite_n

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


def _certificates(args):
    """(n, certificate) for each requested n, rho defaulting per n; -v says
    on stderr how each certificate closed, at which search radius and over
    how many canonical reps."""
    for n in args.n:
        rho = args.rho if args.rho is not None else default_rho(args.d, n)
        if args.verbose:
            print(f"certifying d={args.d} n={n} rho={rho}", file=sys.stderr)
        cert = certify_bounds(args.d, n, rho)
        if args.verbose:
            margin = (cert.sup_Km - cert.asymptotic_bound) / cert.sup_Km
            line = (f"closed at t={cert.t} searching |k| < {cert.search_radius!r} "
                    f"({cert.diagnostics['canonical_candidates']} reps), gate "
                    f"margin (sup_km - far bound) / sup_km = {margin:.3g}")
            if margin < 0:
                line += f"; sup_kk_upper set by the far bound {cert.asymptotic_bound!r}"
            print(line, file=sys.stderr)
        yield n, cert


def cmd_certify(args) -> int:
    reports = [certificate_report(cert) for _, cert in _certificates(args)]
    if args.format == "json":
        print(json.dumps(reports[0] if len(reports) == 1 else reports, indent=2))
    else:
        print("\n\n".join(_human_certificate(rep) for rep in reports))
    return 0


def cmd_table(args) -> int:
    lines = [f"{'n':>4}  {'K-':>8}  {'K+':>8}  {'K-/K+':>8}  status"]
    any_mismatch = False
    for n, cert in _certificates(args):
        km = round_sig_down(cert.K_minus)
        kp = round_sig_up(cert.K_plus)
        ratio = ratio_truncated(km, kp)
        golden = GOLDEN_TABLE.get(n)
        line = f"{n:>4}  {km:>8}  {kp:>8}  {ratio:>8}  "
        if golden is None:
            line += "-"
        elif (km, kp, ratio) == golden:
            line += "ok"
        else:
            line += f"mismatch   (expected {golden[0]}, {golden[1]}, {golden[2]})"
            any_mismatch = True
        lines.append(line)
    print("\n".join(lines))
    return 1 if any_mismatch else 0


def _canonical_amplitudes(d: int):
    """Extremal amplitudes: concentrate v transversally, w out of the plane."""
    if d == 2:
        return 1.0 + 0.0j, (), 1.0 + 0.0j, ()
    e_first = tuple([1.0 + 0.0j] + [0.0j] * (d - 3))
    return 1.0 + 0.0j, (0.0j,) * (d - 2), 0.0j, e_first


def cmd_witness(args) -> int:
    check_finite_n(args.n)
    given = (args.alpha, args.alpha_vec, args.beta, args.beta_vec)
    amplitudes = tuple(
        default if value is None else value
        for value, default in zip(given, _canonical_amplitudes(args.d))
    )
    ratio = lower_bound_witness(args.d, args.n, *amplitudes)
    predicted = witness_prediction(args.d, args.n, *amplitudes)
    rel = abs(ratio - predicted) / predicted
    lines = [
        f"ratio      = {ratio!r}",
        f"predicted  = {predicted!r}",
        f"rel. diff  = {rel:.3e}",
    ]
    if args.dump_fields:
        v, w = trial_pair(args.d, *amplitudes)
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
    print("\n".join(lines))
    return 0


def _parse_n(raw: str):
    x = float(raw)
    return int(x) if x.is_integer() else x


def _parse_n_list(raw: str) -> list:
    values = [_parse_n(piece) for piece in raw.split(",") if piece.strip()]
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


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like any invalid parameter, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="advbounds",
        description="Certified bounds for the sharp advection-inequality "
        "constant on the d-torus.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    p_cert = sub.add_parser("certify", help="compute bound certificates")
    p_table = sub.add_parser(
        "table",
        help="reproduce the d=3 constants table",
        description="Recompute the published d=3 table at the default rho and "
        "mark each row ok or mismatch; exit 1 if any row mismatches.  Rows n=5 "
        "and n=10 always mismatch, so the full table exits 1: the published "
        "values there are the maxima over the |k|^2=2 shell, not the sup "
        "(README, \"Known deviations\").",
    )
    p_wit = sub.add_parser("witness", help="trial-field lower-bound ratio")

    for p, func in ((p_cert, cmd_certify), (p_table, cmd_table),
                    (p_wit, cmd_witness)):
        p.set_defaults(func=func)
    for p in (p_cert, p_wit):
        p.add_argument("--d", type=int, default=3, help="dimension (default 3)")
    p_wit.add_argument("--n", type=_parse_n, default=2, help="order n (default 2)")
    p_cert.add_argument("--rho", type=float, default=None,
                        help="summation cutoff; default 10 (20 for d=3, n=2)")
    for p in (p_cert, p_table):
        p.add_argument(
            "--n",
            type=_parse_n_list,
            default=[2],
            help="order n, or comma list like 2,3,4 (default 2)",
        )
        p.add_argument("-v", "--verbose", action="count", default=0)
    p_cert.add_argument("--format", choices=("human", "json"), default="human")
    p_table.set_defaults(d=3, rho=None, n=[2, 3, 4, 5, 10])

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
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
