import json
import math
import time

import pytest

import advbounds.certify as certify_mod
import advbounds.cli as cli
from advbounds.certify import certify_bounds
from advbounds.fields import field_from_text
from advbounds.kernel import EnclosureWidthError
from advbounds.sums import SumConfig, Z_n
from advbounds.tail import delta_K
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
    assert cli._parse_int_vec("9,9,9") == (9, 9, 9)


def test_certify_json_report(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(
        ["certify", "--d", "3", "--n", "2", "--rho", "5", "--format", "json",
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
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


def test_certify_csv_and_human(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert cli.main(
        ["certify", "--d", "3", "--n", "3", "--rho", "5", "--format", "csv",
         "--out", str(out)]
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(REPORT_KEYS)
    cells = lines[1].split(",")
    assert cells[0] == "3" and cells[1] == "3.0"
    assert cells[5] == "2 1 1"  # argmax flattened with spaces
    assert cli.main(["certify", "--d", "3", "--n", "3", "--rho", "5"]) == 0
    text = capsys.readouterr().out
    assert "K_plus  (round up)" in text
    assert "-> 0.664" in text
    assert "sup K_m" in text


def test_certify_multiple_n_json(tmp_path):
    out = tmp_path / "multi.json"
    assert cli.main(
        ["certify", "--d", "3", "--n", "2,3", "--rho", "5", "--format", "json",
         "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
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
                      (certify_mod, "remainder_extrema"),
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
        ["table", "--n", "3", "--rho", "inf"],
        ["sums", "--rho", "inf"],
        ["certify", "--d", "2", "--n", "2", "--rho", "1e308"],  # 2 rho overflows
    ],
)
def test_nonfinite_rho_exit_1(argv, capsys):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "requires a finite rho with 2*rho finite" in err
    assert "Traceback" not in err


def test_enclosure_failure_exit_3(monkeypatch, capsys):
    def stuck(*args, **kwargs):
        raise EnclosureWidthError(
            "extrema enclosure at width 1.0e+00 needs 295935 active cells, more "
            "than the cap of 262144"
        )

    monkeypatch.setattr(certify_mod, "remainder_extrema", stuck)
    assert cli.main(["certify", "--d", "3", "--n", "3", "--rho", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: extrema enclosure at width")


@pytest.mark.parametrize(
    "argv, t",
    [
        (["--d", "3", "--n", "1.6", "--rho", "5"], 8),
        (["--d", "5", "--n", "3", "--rho", "5"], 10),
    ],
    ids=["d3-n1.6-rho5-t8", "d5-n3-rho5-t10"],
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
    """At d5 n2.501 rho 5 no t closes the gate, so sup_kk_upper is the far
    bound plus delta_K, and -v says so."""
    assert cli.main(["certify", "--d", "5", "--n", "2.501", "--rho", "5", "-v"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "certifying d=5 n=2.501 rho=5.0"
    assert err[1].startswith("closed at t=10, gate margin")
    assert float(err[1].split("= ")[1].split(";")[0]) < 0
    assert err[1].endswith("sup_kk_upper set by the far bound 84.61376621016473")


def test_verbose_gate_margin_leaves_the_reports_alone(capsys):
    """-v writes to stderr only; every report format is unchanged, apart
    from its runtime (the last csv column, a line of the other two)."""
    for fmt in ("json", "csv", "human"):
        outputs = []
        for verbose in ([], ["-v"]):
            argv = ["certify", "--d", "3", "--n", "3", "--format", fmt]
            assert cli.main(argv + verbose) == 0
            out, err = capsys.readouterr()
            lines = out.splitlines()
            if fmt == "csv":
                outputs.append([line.rsplit(",", 1)[0] for line in lines])
            else:
                outputs.append([line for line in lines if "runtime" not in line])
            if verbose:
                closed = err.splitlines()[1]
                assert closed.startswith("closed at t=6, gate margin")
                assert float(closed.split("= ")[1]) > 0
                assert "set by" not in closed
        assert outputs[0] == outputs[1]


def test_over_budget_search_exit_1(capsys):
    assert cli.main(["certify", "--d", "2", "--n", "2", "--rho", "2500"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: canonical reps d=2, radius=5000.0 span")


def test_certify_large_n_hits_cell_cap_exit_3(capsys):
    """Past n = 13 the remainder refinement would split more cells than
    kernel.MAX_ACTIVE_CELLS; the run stops with exit 3 instead of growing
    without bound (n = 20 was OOM-killed before the cap)."""
    assert cli.main(["certify", "--d", "3", "--n", "30"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: extrema enclosure at width")
    assert "active cells, more than the cap of 262144" in err
    assert err.count("\n") == 1


def test_sums_overflowing_scale_exit_1(capsys):
    argv = ["sums", "--d", "3", "--n", "200", "--rho", "4", "--k", "7,0,0"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: |k|^(2n) = 49^200.0 overflows a float")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["witness", "--n", "2000"], "|k|^(2n) = 2^2000.0 overflows a float"),
        (["witness", "--n", "-5000"], "|k|^(2n) = 2^-5000.0 underflows to 0"),
        (["witness", "--n", "-1070"], "the predicted ratio^2 underflows to 0"),
        (["sums", "--n", "10000", "--rho", "5"], "B_n = 2^(2n+1)"),
        (["sums", "--n", "1e300", "--rho", "5"], "B_n = 2^(2n+1)"),
        (["sums", "--n", "200.5", "--rho", "5"], "evaluating B_n in floats overflows"),
        (["sums", "--n", "200", "--rho", "3.5"], "(rho - 2 sqrt(d))^(nu-1-i)"),
        (["sums", "--n", "100", "--rho", "3.5"], "delta_K = 2 B_n T overflows"),
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
    assert cli.main(["table", "--n", "3", "--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,k_minus,k_plus,ratio,status"
    assert out[1] == "3,0.179,0.323,0.554,ok"


def test_table_detects_reference_mismatch(capsys):
    """n = 5 reproduces the documented disagreement with the reference row:
    the true lattice maximum (at (2,1,0), cross-checked in exact arithmetic)
    exceeds the reference value, so K+ comes out 0.657 instead of 0.510."""
    assert cli.main(["table", "--n", "5", "--format", "csv"]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert out[1] == "5,0.359,0.657,0.546,mismatch"
    assert cli.main(["table", "--n", "5"]) == 1
    human = capsys.readouterr().out
    assert "mismatch   (expected 0.359, 0.510, 0.703)" in human


def test_table_unlisted_n_gets_dash(capsys):
    assert cli.main(["table", "--n", "7", "--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[1] == "7,0.718,1.59,0.451,-"


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
    ],
)
def test_witness_tiny_amplitude_exit_1(argv, capsys):
    """An amplitude whose largest |component|^2 is subnormal loses digits in
    the norms (1e-160 gave rel. diff 1e-2) or zeroes the denominator (1e-165
    raised ZeroDivisionError), so the witness refuses it."""
    assert cli.main(["witness", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trial amplitude")
    assert "below the normal float range" in err
    assert err.count("\n") == 1


def test_witness_small_normal_amplitude_is_accurate(capsys):
    assert cli.main(["witness", "--d", "2", "--n", "2", "--alpha", "1e-150"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("rel. diff  = ")[1]) < 1e-15


def test_sums_subcommand(capsys):
    assert cli.main(
        ["sums", "--d", "3", "--n", "2", "--rho", "5", "--k", "3,2,1"]
    ) == 0
    out = capsys.readouterr().out
    cfg = SumConfig.create(3, 2, 5.0)
    assert f"K_m(3, 2, 1) = {20.963980443100873!r}" in out
    assert f"Z_n = {Z_n(cfg)!r}" in out
    assert f"delta_K = {delta_K(3, 2.0, 5.0)!r}" in out


def test_cli_thread_count_does_not_change_results(tmp_path, monkeypatch):
    reports = []
    for threads, name in ((1, "a.json"), (4, "b.json")):
        monkeypatch.setattr(certify_mod, "_worker_count", lambda blocks: threads)
        out = tmp_path / name
        assert cli.main(
            ["certify", "--d", "3", "--n", "3", "--rho", "5",
             "--format", "json", "--out", str(out)]
        ) == 0
        rep = json.loads(out.read_text())
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
