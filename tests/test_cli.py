import json
import math
import time
from pathlib import Path

import pytest

import advbounds.certify as certify_mod
import advbounds.cli as cli
import advbounds.kernel as kernel_mod
from advbounds.certify import certify_bounds
from advbounds.fields import field_from_text
from advbounds.kernel import EnclosureWidthError
from conftest import rel_err

REPORT_KEYS = [
    "d", "n", "rho", "t", "sup_km", "argmax", "sup_kk_lower", "sup_kk_upper",
    "k_plus", "k_minus", "delta_k", "z_n", "k_plus_rounded", "k_minus_rounded",
    "runtime_ms",
]


def test_round_sig_up():
    assert cli.round_sig_up(0.33423) == "0.335"
    assert cli.round_sig_up(2.8734) == "2.88"
    assert cli.round_sig_up(0.8098684) == "0.810"
    assert cli.round_sig_up(6.20699) == "6.21"
    assert cli.round_sig_up(0.335) == "0.335"  # already three digits: unchanged
    assert cli.round_sig_up(123456.0) == "1.24E+5"


def test_round_sig_down():
    assert cli.round_sig_down(0.126987) == "0.126"
    assert cli.round_sig_down(2.0317963) == "2.03"
    assert cli.round_sig_down(0.17958712) == "0.179"
    assert cli.round_sig_down(0.179) == "0.179"


def test_ratio_truncated():
    assert cli.ratio_truncated("0.126", "0.335") == "0.376"
    assert cli.ratio_truncated("0.179", "0.323") == "0.554"
    assert cli.ratio_truncated("0.359", "0.510") == "0.703"
    # 2.03 / 2.88 = 0.70486...: must truncate, not round to 0.705
    assert cli.ratio_truncated("2.03", "2.88") == "0.704"


def test_default_rho():
    assert cli.default_rho(3, 2) == 20.0
    assert cli.default_rho(3, 3) == 10.0
    assert cli.default_rho(2, 2) == 10.0
    assert cli.default_rho(4, 3) == 10.0


def test_parsers():
    assert cli._parse_n_list("2,3, 10") == [2, 3, 10]
    assert cli._parse_n_list("2.5") == [2.5]
    assert cli._parse_complex("1.5") == 1.5 + 0j
    assert cli._parse_complex("1,-2") == 1 - 2j
    assert cli._parse_complex_vec("1,0;0,1") == (1 + 0j, 1j)
    assert cli._parse_complex_vec("") == ()


def test_certify_json_report(capsys):
    code = cli.main(
        ["certify", "--d", "3", "--n", "2", "--rho", "5", "--format", "json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == REPORT_KEYS
    assert report["d"] == 3 and report["n"] == 2 and report["rho"] == 5.0
    assert report["argmax"] == [3, 3, 3]
    assert rel_err(report["sup_km"], 21.7744740993908) < 1e-12
    assert report["k_plus_rounded"] == "0.810"
    assert report["k_minus_rounded"] == "0.126"
    # full-precision floats must round-trip exactly through JSON
    cert = certify_bounds(3, 2, 5.0)
    assert report["sup_km"] == cert.sup_Km
    assert report["k_plus"] == cert.K_plus
    assert report["sup_kk_upper"] == cert.sup_KK_interval.upper


def test_certify_csv_and_human(capsys):
    """The human report; the csv format is gone (test_removed_flags_exit_1)."""
    assert cli.main(["certify", "--d", "3", "--n", "3", "--rho", "5"]) == 0
    text = capsys.readouterr().out
    assert "K_plus  (round up)" in text
    assert "-> 0.664" in text
    assert "sup K_m" in text


def test_certify_multiple_n_json(capsys):
    assert cli.main(
        ["certify", "--d", "3", "--n", "2,3", "--rho", "5", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and len(payload) == 2
    assert [r["n"] for r in payload] == [2, 3]


def test_certify_invalid_parameters_exit_1(capsys):
    assert cli.main(["certify", "--d", "3", "--n", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "n > d/2" in err


@pytest.mark.parametrize("n", ["inf", "nan"])
@pytest.mark.parametrize(
    "argv", [["certify", "--d", "3", "--rho", "5"], ["witness", "--d", "3"]]
)
def test_nonfinite_n_exit_1(argv, n, monkeypatch, capsys):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran before n was checked")

    for mod, name in ((certify_mod.SumConfig, "create"),
                      (certify_mod, "build_asymptotic_model"),
                      (cli, "lower_bound_witness"), (cli, "witness_prediction")):
        monkeypatch.setattr(mod, name, no_stage)
    assert cli.main(argv + ["--n", n]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"requires a finite n, got n={n}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--rho", "inf"],
        ["certify", "--d", "4", "--n", "3", "--rho", "1e400"],  # parses to inf
        ["certify", "--d", "2", "--n", "2", "--rho", "1e308"],  # 2 rho overflows
    ],
)
def test_nonfinite_rho_exit_1(argv, capsys):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "requires a finite rho with 2*rho finite" in err
    assert "Traceback" not in err


def _no_grid(monkeypatch):
    """Make every remainder grid run raise: certify_bounds must not need one."""
    def stuck(n, t):
        raise EnclosureWidthError(
            "extrema enclosure at width 1.0e+00 needs 295935 active cells, more "
            "than the cap of 262144"
        )

    monkeypatch.setattr(kernel_mod, "remainder_extrema", stuck)
    monkeypatch.setattr(certify_mod, "remainder_extrema", stuck)


def test_grid_failure_at_every_t_keeps_the_closed_form(monkeypatch, capsys):
    """At d3 n1.6 rho 10 neither the closed form G nor the grid closed the
    gate below t = 10 before; the per-shell bound needs no grid, so a grid
    that fails at every t changes nothing: the run exits 0 and the gate
    closes at t = 8, sup_kk_upper = sup_km + delta_K."""
    _no_grid(monkeypatch)
    argv = ["certify", "--d", "3", "--n", "1.6", "--format", "json"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["t"] == 8 and 38.68 < report["sup_km"] < 38.69
    upper = report["sup_km"] + report["delta_k"]
    k_plus = (2.0 * math.pi) ** -1.5 * math.sqrt(upper)
    assert (report["sup_kk_upper"], report["k_plus"]) == (upper, k_plus)
    assert report["k_plus_rounded"] == cli.round_sig_up(k_plus)


@pytest.mark.parametrize(
    "n, t", [("14", 6), ("20", 6), ("22", 6), ("31", 6)], ids=["14", "20", "22", "31"]
)
def test_certify_past_the_grid_cell_cap_exit_0(n, t, monkeypatch, capsys):
    """The grid's refinement passes its active-cell cap from n = 14 on, and
    before the per-shell bound n = 22 and 31 settled at t = 8 and 10 once
    the grid at each t before it hit the cap.  Now no grid runs, and each
    closes at t = 6 below 2 rho."""
    _no_grid(monkeypatch)
    assert cli.main(["certify", "--d", "3", "--n", n, "--format", "json", "-v"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["t"] == t
    assert err.splitlines()[1].startswith(f"closed at t={t} searching |k| < 1")


@pytest.mark.parametrize("n", ["41", "60"])
def test_certify_large_n_closes_without_the_grid(n, monkeypatch, capsys):
    """Before the per-shell bound, n >= 41 rested on G's t = 10 far bound,
    above sup K_m, as the grid hit its cell cap at every t.  Now the gate
    closes at t = 6 with no grid run, so sup_kk_upper is sup_km + delta_K."""
    _no_grid(monkeypatch)
    assert cli.main(["certify", "--d", "3", "--n", n, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["t"] == 6
    assert report["sup_kk_upper"] == report["sup_km"] + report["delta_k"]


@pytest.mark.parametrize(
    "argv, t",
    [
        (["--d", "3", "--n", "1.6"], 8),
        (["--d", "5", "--n", "2.501", "--rho", "5"], 10),
    ],
    ids=["d3-n1.6-rho10-t8", "d5-n2.501-rho5-t10"],
)
def test_certify_other_t_and_d_exit_0(argv, t, monkeypatch, capsys):
    """Near n = d/2 the t = 6 asymptotic bound at the search radius lies
    above the searched maximum; the certificate settles on the first larger
    t whose bound does not, and its diagnostics come from that t.  At d = 5
    the sphere-polynomial extrema come from the same candidate set."""
    certs = []

    def capture(*args, **kwargs):
        certs.append(certify_bounds(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(cli, "certify_bounds", capture)
    assert cli.main(["certify", *argv, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["t"] == t == certs[0].t
    assert report["sup_kk_lower"] == report["sup_km"]
    assert report["sup_kk_upper"] == report["sup_km"] + report["delta_k"]
    assert certs[0].asymptotic_bound <= report["sup_km"]
    diag = certs[0].diagnostics
    orders = list(range(2, t - 1, 2))
    assert sorted(diag["q_upper"]) == sorted(diag["q_lower"]) == orders


def test_verbose_names_the_far_bound_of_an_open_gate(capsys):
    """At d6 n3.1 rho 5 no rung and no t closes the gate, so the search
    covers |k| < 2 rho, sup_kk_upper is the far bound plus delta_K, and -v
    says so."""
    assert cli.main(["certify", "--d", "6", "--n", "3.1", "--rho", "5", "-v"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "certifying d=6 n=3.1 rho=5.0"
    assert err[1].startswith("closed at t=10 searching |k| < 10.0 (969 reps), gate margin")
    assert float(err[1].split("= ")[1].split(";")[0]) < 0
    assert err[1].endswith("sup_kk_upper set by the far bound 92.49653553023076")
    assert err[1] in (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_verbose_names_the_grid_when_it_closed_the_gate(capsys):
    """-v names the rung the search stopped at and the reps below it: at d3
    n2.5 rho 6, where the grid once closed the t = 6 gate, the per-shell
    bound closes it at 0.7 x 2 rho, over 91 of the 223 reps below 2 rho."""
    assert cli.main(["certify", "--d", "3", "--n", "2.5", "--rho", "6", "-v"]) == 0
    closed = capsys.readouterr().err.splitlines()[1]
    assert closed.startswith("closed at t=6 searching |k| < 8.4 (91 reps), gate margin")
    assert float(closed.split("= ")[1]) > 0


def test_verbose_gate_margin_leaves_the_reports_alone(capsys):
    """-v writes to stderr only; both report formats are unchanged, apart
    from their runtime line."""
    for fmt in ("json", "human"):
        outputs = []
        for verbose in ([], ["-v"]):
            argv = ["certify", "--d", "3", "--n", "3", "--format", fmt]
            assert cli.main(argv + verbose) == 0
            out, err = capsys.readouterr()
            outputs.append([line for line in out.splitlines() if "runtime" not in line])
            if verbose:
                closed = err.splitlines()[1]
                assert closed.startswith(
                    "closed at t=6 searching |k| < 12.0 (223 reps), gate margin")
                assert float(closed.split("= ")[1]) > 0
                assert "set by" not in closed
        assert outputs[0] == outputs[1]


def test_over_budget_search_exit_1(capsys):
    assert cli.main(["certify", "--d", "2", "--n", "2", "--rho", "2500"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: canonical reps d=2, radius=5000.0 span")


def test_certify_large_n_hits_cell_cap_certifies_under_the_closed_form(
        monkeypatch, capsys):
    """Past n = 13 the remainder grid's refinement would split more cells
    than kernel.MAX_ACTIVE_CELLS; at n = 41 it hit the cap at t = 6, 8 and
    10, and the certificate rested on G's t = 10 far bound, above sup K_m
    (k_plus_rounded 9.68E+6).  The per-shell bound closes the gate at t = 6
    at the lowest rung, 0.55 x 2 rho, over 178 reps: K_plus is the searched
    max's, 9.14E+6."""
    certs = []

    def capture(*args):
        certs.append(certify_bounds(*args))
        return certs[-1]

    monkeypatch.setattr(cli, "certify_bounds", capture)
    argv = ["certify", "--d", "3", "--n", "41", "--format", "json", "-v"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    (cert,) = certs
    assert report["t"] == 6 and report["k_plus_rounded"] == "9.14E+6"
    assert cert.asymptotic_bound < report["sup_km"]
    assert report["sup_kk_upper"] == report["sup_km"] + report["delta_k"]
    closed = err.splitlines()[1]
    assert closed.startswith("closed at t=6 searching |k| < 11.0 (178 reps)")
    assert "set by" not in closed


@pytest.mark.parametrize(
    "argv",
    [
        ["--d", "3", "--n", "2", "--alpha", "1e154"],
        ["--d", "3", "--n", "30", "--beta", "1e153"],
    ],
)
def test_witness_norm_overflow_exit_1(argv, capsys):
    """Each amplitude square is finite, but a weighted norm sum is not: 1e154
    ended in an OverflowError traceback from fsum, and 1e153 at n = 30
    printed ratio = inf and rel. diff = nan with exit 0."""
    assert cli.main(["witness", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the norm^2 sum_k |k|^(2n) |v_k|^2 at n=")
    assert "is not a finite float; requires smaller amplitudes" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (["witness", "--n", "2000"], "|k|^(2n) = 2^2000.0 overflows a float"),
        (["witness", "--n", "-5000"], "|k|^(2n) = 2^-5000.0 underflows to 0"),
        (["witness", "--n", "-1070"], "the predicted ratio^2 underflows to 0"),
    ],
)
def test_out_of_float_range_exit_1(argv, message, capsys):
    """A power that leaves the float range is a named precondition, found
    before any huge integer is built."""
    start = time.perf_counter()
    assert cli.main(argv + ["--d", "3"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: " + message)
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "d,n", [(2, -1068), (2, -1059), (2, -1040), (2, -1023), (2, -1016), (3, -1015)]
)
def test_witness_subnormal_ratio_exit_1(d, n, capsys):
    """A subnormal predicted ratio^2 has lost digits, and so have the
    witness's terms of the same size (unchecked, d=2 n=-1068 gives ratio
    0.0), so the witness refuses."""
    assert cli.main(["witness", "--d", str(d), "--n", str(n)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the predicted ratio^2 underflows")
    assert err.count("\n") == 1


@pytest.mark.parametrize("d,n", [(2, -1000), (2, -1015), (3, -1014)])
def test_witness_small_normal_ratio_is_accurate(d, n, capsys):
    """Down to the smallest accepted n, the ratio matches the closed form
    evaluated without underflow, 2^(n/2) (2 pi)^(-d/2) |projected amplitude|."""
    assert cli.main(["witness", "--d", str(d), "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert float(out.split("rel. diff  = ")[1]) < 1e-12
    ratio = float(out.split("ratio      = ")[1].split()[0])
    projected = math.sqrt(0.5) if d == 2 else 1.0
    exact = 2.0 ** (n / 2) * (2.0 * math.pi) ** (-d / 2) * projected
    assert abs(ratio - exact) / exact < 1e-15


def test_table_single_rows(capsys):
    assert cli.main(["table", "--n", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["n", "K-", "K+", "K-/K+", "status"]
    assert out[1].split() == ["3", "0.179", "0.323", "0.554", "ok"]
    assert len(out) == 2


def test_table_detects_reference_mismatch(capsys):
    """n = 5 reproduces the documented disagreement with the reference row:
    the true lattice maximum (at (2,1,0), cross-checked in exact arithmetic)
    exceeds the reference value, so K+ comes out 0.657 instead of 0.510."""
    assert cli.main(["table", "--n", "5"]) == 1
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split()[:5] == ["5", "0.359", "0.657", "0.546", "mismatch"]
    assert row.endswith("mismatch   (expected 0.359, 0.510, 0.703)")


def test_table_unlisted_n_gets_dash(capsys):
    assert cli.main(["table", "--n", "7"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["7", "0.718", "1.59", "0.451", "-"]


def test_witness_default_canonical(capsys):
    assert cli.main(["witness", "--d", "3", "--n", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    ratio = float(lines[0].split("=")[1])
    predicted = float(lines[1].split("=")[1])
    want = 2.0 / (2.0 * math.pi) ** 1.5
    assert rel_err(ratio, want) < 1e-10
    assert rel_err(predicted, want) < 1e-12
    rel = float(lines[2].split("=")[1])
    assert rel < 1e-12


def test_witness_dump_fields_parse_back(capsys):
    assert cli.main(["witness", "--d", "3", "--n", "2", "--dump-fields"]) == 0
    out = capsys.readouterr().out
    blocks = out.split("# ")
    assert len(blocks) == 4  # header lines + v + w + projected advection
    for block in blocks[1:]:
        body = "\n".join(block.splitlines()[1:]).strip()
        parsed = field_from_text(body)
        assert parsed.d == 3


def test_witness_zero_amplitude_exit_1(capsys):
    code = cli.main(
        ["witness", "--d", "3", "--n", "2", "--alpha", "0", "--alpha-vec", "0"]
    )
    assert code == 1
    assert "zero trial amplitude" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--d", "2", "--n", "2", "--alpha", "1e-160"],
        ["--d", "2", "--n", "2", "--alpha", "1e-165"],
        ["--d", "3", "--beta-vec", "1e-165"],
        ["--d", "3", "--n", "2", "--alpha", "1e155"],
        ["--d", "3", "--n", "2", "--beta", "1e160"],
        ["--d", "3", "--n", "2", "--alpha", "inf"],
        ["--d", "3", "--n", "2", "--alpha", "nan"],
    ],
)
def test_witness_tiny_amplitude_exit_1(argv, capsys):
    """An amplitude whose largest |component|^2 is subnormal loses digits in
    the norms (1e-160 gave rel. diff 1e-2) or zeroes the denominator (1e-165
    raised ZeroDivisionError), so the witness refuses it.  So it does when
    that square is not finite: 1e155 and 1e160 ended in an OverflowError
    traceback, inf printed ratio = nan with exit 0, and nan was reported as
    a zero amplitude."""
    assert cli.main(["witness", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trial amplitude")
    tiny = abs(complex(argv[-1])) < 1.0
    assert ("below the normal float range" if tiny else "is not finite") in err
    assert err.count("\n") == 1


def test_witness_small_normal_amplitude_is_accurate(capsys):
    assert cli.main(["witness", "--d", "2", "--n", "2", "--alpha", "1e-150"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("rel. diff  = ")[1]) < 1e-15


def test_cli_thread_count_does_not_change_results(monkeypatch, capsys):
    reports = []
    for threads in (1, 4):
        monkeypatch.setattr(kernel_mod, "_cpu_workers", lambda: threads)
        assert cli.main(
            ["certify", "--d", "3", "--n", "3", "--rho", "5", "--format", "json"]
        ) == 0
        rep = json.loads(capsys.readouterr().out)
        rep.pop("runtime_ms")
        reports.append(rep)
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--rho", "5"],
        ["witness", "--format", "json"],
        ["witness", "--canonical"],
        ["sums", "--t", "8"],
        ["sums", "--threads", "2"],
        ["certify", "--threads", "2"],
        ["table", "--threads", "2"],
        ["table", "--format", "json"],
        ["certify", "--t", "8"],
        ["certify", "--search-radius", "30"],
        ["table", "--t", "8"],
        ["table", "--search-radius", "30"],
        ["sums", "--k", "1,0,0"],
        ["certify", "--out", "report.json"],
        ["table", "--out", "table.txt"],
        ["witness", "--out", "witness.txt"],
        ["certify", "--format", "csv"],
        ["table", "--format", "csv"],
        ["table", "--n", "3", "--rho", "inf"],
        ["table", "--d", "3"],
        ["table", "--rho", "10"],
    ],
)
def test_removed_flags_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    """No input exits 2, argparse's code for a usage error."""
    for argv in (["certfy"], ["certify", "--n", "x"], ["certify", "--bogus"], []):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
    for argv in (["--help"], ["certify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert "--rho" in help_text and "--search-radius" not in help_text
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "Rows n=5 and n=10 always mismatch" in help_text
