import cmath
import json
import math
import subprocess
import sys

import pytest

from fermatkl.cli import main, parse_complex, parse_cusp, parse_form_label
from fermatkl.eisenstein import TruncationSpec
from fermatkl.fermat import GAMMA1, cusp_reps, fermat_cusp_of_ram, gamma_n
from fermatkl.qseries import FormLabel
from fermatkl import scattering
from fermatkl.scattering import ScatteringEntry, klf_constant
from fermatkl.sl2 import CUSP_INF, CUSP_ONE, CUSP_ZERO, Cusp
from fermatkl.verify import (
    CheckReport,
    check_klf_gamma2,
    check_cross_path,
    check_klf_fermat,
    check_limitsum,
    check_scattering_consistency,
    check_sum_relation,
    check_sumrs,
    run_suite,
)

from series_oracles import coset_product_value, slash2_value
from word_oracles import coset_reps

TR = TruncationSpec(c_max=250, m_max=10, order=20)


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "fermatkl.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_check_klf_gamma2():
    rep = check_klf_gamma2(CUSP_INF, 2j, TR)
    assert rep.passed and rep.residual < 1e-6
    rep0 = check_klf_gamma2(CUSP_ZERO, 1 + 2j, TR)
    assert rep0.passed
    # residual invariant under the level-2 translation z -> z + 2
    r1 = check_klf_gamma2(CUSP_ONE, 0.3 + 1.5j, TR).residual
    r2 = check_klf_gamma2(CUSP_ONE, 2.3 + 1.5j, TR).residual
    assert abs(r1 - r2) < 1e-12


def test_check_klf_fermat_small():
    fc = cusp_reps(2)[-1]  # infinity cusp, exact modes
    rep = check_klf_fermat(2, fc, 2j, TruncationSpec(c_max=300, m_max=10, order=20))
    assert rep.passed, rep


@pytest.mark.parametrize("n", [6, 7])
def test_cross_path_above_level_5_at_m_max_20(n):
    # past level 5 the cross path needs modes beyond the default m_max 10
    # (ROADMAP item 5): 9.6e-7 at n = 6 and 2.9e-6 at n = 7 with 20
    reps = cusp_reps(n)
    rep = check_cross_path(gamma_n(n), reps[0].rep, reps[-1].rep, 1j, 2.0,
                           TruncationSpec(c_max=400, m_max=20))
    assert rep.passed and rep.tolerance == 1e-4, rep


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 5: fourier_eval stops at m_max 10, "
                                       "1.05e-4 at n = 6 and 1.53e-4 at n = 7 against 1e-4")
@pytest.mark.parametrize("n", [6, 7])
def test_cross_path_above_level_5_at_default_m_max(n):
    reps = cusp_reps(n)
    rep = check_cross_path(gamma_n(n), reps[0].rep, reps[-1].rep, 1j, 2.0,
                           TruncationSpec(c_max=400))
    assert rep.passed, rep


def test_check_limitsum():
    # every cusp up to N = 24: the coset product is taken in logs, never
    # as a value, which underflows at kind C from N = 11 and overflows
    # at every kind at N = 24
    tr = TruncationSpec(c_max=250, m_max=10, order=20)
    for n in range(1, 25):
        for fc in cusp_reps(n):
            for z in (2j, 1 + 2j, 0.3 + 1.2j):
                rep = check_limitsum(n, fc, z, tr)
                assert rep.passed and rep.tolerance == 1e-5, (n, fc.rep, z, rep)
    # product collapse: sum of logs equals log of the coset product
    n, z = 2, 2j
    total = 0.0
    for g in coset_reps(n):
        v = slash2_value(FormLabel("f", n, "B", 0), g, z)
        total += math.log(abs(v) ** 2 * z.imag ** 2)
    prod = coset_product_value("B", n, z)
    assert abs(total - math.log(abs(prod) ** 2 * z.imag ** (2 * n * n))) < 1e-10


def test_klf_checks_keep_their_bits_at_x_translated_by_the_width():
    # f is invariant under z -> z + 2N, and both checks take the forms
    # at Re z reduced by the width 2N, as the limit side is taken
    for n in range(1, 6):
        for fc in cusp_reps(n):
            for z in (0.375 + 1.25j, 2j, 1 + 2j):
                for check in (check_klf_fermat, check_limitsum):
                    at_z = check(n, fc, z, TR).residual
                    for k in (1, -1, 1000, -1000):
                        assert check(n, fc, z + 2 * n * k, TR).residual == at_z, \
                            (check.__name__, n, fc.rep, z, k)


def test_klf_checks_build_no_series(monkeypatch):
    # the three Kronecker-limit checks take their forms at the point
    from fermatkl import qseries

    def refuse(*args, **kwargs):
        raise AssertionError("a q-series was built")

    for name in ("f_series", "_level2_series", "_root_series", "_class_terms"):
        monkeypatch.setattr(qseries, name, refuse)
    monkeypatch.setattr(qseries.QExpansion, "__post_init__", refuse)
    for j in (CUSP_ZERO, CUSP_ONE, CUSP_INF):
        assert check_klf_gamma2(j, 0.3 + 1.5j, TR).passed
    for n in (2, 3):
        reps = cusp_reps(n)
        for fc in (reps[0], reps[n], reps[-1]):
            assert check_klf_fermat(n, fc, 1 + 2j).passed
        assert check_limitsum(n, reps[n], 2j, TR).passed


def test_check_sum_relation_and_scaling():
    rep = check_sum_relation(2, CUSP_ZERO, 1j, 2.0, TruncationSpec(c_max=150))
    assert rep.passed
    # doubling c_max does not worsen the residual beyond the tails
    r_small = check_sum_relation(2, CUSP_INF, 1 + 2j, 2.0, TruncationSpec(c_max=100))
    r_big = check_sum_relation(2, CUSP_INF, 1 + 2j, 2.0, TruncationSpec(c_max=200))
    assert r_big.residual <= r_small.residual + 1e-12


def test_check_sumrs():
    assert check_sumrs(2, 1, 0, CUSP_INF, CUSP_ZERO).residual < 1e-14
    assert check_sumrs(2, 3, 1, CUSP_INF, CUSP_ONE).passed
    assert check_sumrs(3, 2, 2, CUSP_ZERO, CUSP_INF).passed


def test_check_scattering_consistency():
    for n in (1, 2, 3):
        assert check_scattering_consistency(n).passed


def test_scattering_consistency_at_level_1_sees_each_level2_diagonal_entry(monkeypatch):
    # at n = 1 the subcusp relations compare the nine level-2 entries one
    # by one, as naturals: a diagonal entry moved by 1e-9 fails the check
    entries = scattering.gamma2_constants()
    for i in range(3):
        moved = [list(row) for row in entries]
        e = moved[i][i]
        moved[i][i] = ScatteringEntry(e.normalized + 1e-9, e.natural + 1e-9, e.case_tag)
        monkeypatch.setattr(scattering, "gamma2_constants", lambda moved=moved: moved)
        assert not check_scattering_consistency(1).passed, i


def test_run_suite_fast_and_order():
    reports = run_suite("fast", TR, ns=(1, 2))
    assert all(isinstance(r, CheckReport) for r in reports)
    assert all(r.passed for r in reports)
    ids = [r.check_id for r in reports]
    assert ids == sorted(ids, key=lambda x: ids.index(x))  # stable order
    again = run_suite("fast", TR, ns=(1, 2), workers=4)
    assert [r.check_id for r in again] == ids
    assert [r.residual for r in again] == [r.residual for r in reports]


def test_full_suite_runs_every_check_at_its_truncation(monkeypatch):
    # every check that takes a truncation gets the suite's, the one that
    # the provenance of verify prints
    from fermatkl import verify

    trunc = TruncationSpec(c_max=450, m_max=12)
    seen = []

    def recording(name):
        def check(*args):
            seen.append((name, args[-1]))
            return CheckReport(name, {}, 0.0, 1.0, True, 0)
        return check

    names = ("check_klf_gamma2", "check_klf_fermat", "check_limitsum",
             "check_sum_relation", "check_cross_path")
    for name in names:
        monkeypatch.setattr(verify, name, recording(name))
    run_suite("full", trunc, (2, 3))
    assert {name for name, _ in seen} == set(names)
    assert all(t is trunc for _, t in seen), seen


def test_full_suite_warm_runs_are_byte_identical(monkeypatch):
    # a run in a warm process reads the tables and the memoized phi that
    # the first run filled, and must print the bits it printed, on one
    # worker or four
    from collections import OrderedDict

    from fermatkl import eisenstein

    monkeypatch.setattr(eisenstein, "_TABLES", OrderedDict())
    eisenstein._phis.cache_clear()

    def dump(workers):
        reports = run_suite("full", ns=(1, 2, 3), workers=workers)
        return json.dumps([r.to_json_dict(with_runtime=False) for r in reports]).encode()

    cold = dump(1)
    assert eisenstein._phis.cache_info().currsize
    assert dump(1) == cold
    assert dump(4) == cold


def test_report_passed_invariant():
    rep = check_scattering_consistency(2)
    assert rep.passed == (rep.residual <= rep.tolerance)
    d = rep.to_json_dict(with_runtime=False)
    assert d["runtime_ms"] == 0


def test_parsers():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.5i") == -0.5j
    assert parse_complex("2") == 2 + 0j
    assert parse_complex("0.3+1.5i") == 0.3 + 1.5j
    assert parse_complex("1e20+1i") == 1e20 + 1j
    assert parse_complex("1-i") == 1 - 1j and parse_complex("i") == 1j
    assert parse_cusp("inf") == CUSP_INF
    assert parse_cusp("1/2") == Cusp(1, 2)
    assert parse_cusp("-3") == Cusp(-3, 1)
    lab = parse_form_label("f:B:1:3")
    assert (lab.name, lab.kind, lab.j, lab.n) == ("f", "B", 1, 3)
    with pytest.raises(Exception):
        parse_form_label("nope")


def test_cli_cusps_and_errors():
    rc, out, _ = run_cli("cusps", "--n", "2", "--no-timestamp")
    assert rc == 0
    rec = json.loads(out)
    assert rec["schema_version"] == "1"
    assert len(rec["results"]["cusps"]) == 6
    assert rec["results"]["cusps"][0]["width"] == 4
    rc, out, _ = run_cli("cusps", "--n", "3", "--no-timestamp")
    assert rc == 0
    rows = [(c["rep"], c["kind"], c["index"], c["width"], c["ramification_point"], c["beta_image"])
            for c in json.loads(out)["results"]["cusps"]]
    assert rows == [
        ("0", "A", 0, 6, "(0 : 1 : 1)", "0"),
        ("2", "A", 2, 6, "(0 : zeta^2 : 1)", "0"),
        ("4", "A", 1, 6, "(0 : zeta^1 : 1)", "0"),
        ("1", "B", 0, 6, "(1 : 0 : 1)", "1"),
        ("3", "B", 2, 6, "(zeta^2 : 0 : 1)", "1"),
        ("5", "B", 1, 6, "(zeta^1 : 0 : 1)", "1"),
        ("1/2", "C", 2, 6, "(eps*zeta^2 : 1 : 0)", "inf"),
        ("1/4", "C", 1, 6, "(eps*zeta^1 : 1 : 0)", "inf"),
        ("inf", "C", 0, 6, "(eps : 1 : 0)", "inf"),
    ]
    rc, _, err = run_cli("cusps", "--n", "0", "--no-timestamp")
    assert rc == 1 and "usage" in err


def test_cli_classify():
    rc, out, _ = run_cli("classify", "--cusp", "1/4", "--n", "2", "--no-timestamp")
    assert rc == 0
    rec = json.loads(out)
    assert rec["results"]["representative"] == "inf"
    rc, out, _ = run_cli("classify", "--cusp=-3", "--n", "2", "--no-timestamp")
    rec = json.loads(out)
    assert rec["results"]["representative"] == "1"


def test_cli_scatter_formats():
    # capture in binary: text mode would normalize the RFC-4180 CRLF
    proc = subprocess.run([sys.executable, "-m", "fermatkl.cli", "scatter",
                           "--n", "1", "--format", "csv", "--no-timestamp"],
                          capture_output=True)
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.decode().split("\r\n") if l]
    assert lines[0].split(",")[0] == "rep"
    assert len(lines) == 4
    rc, out, _ = run_cli("scatter", "--n", "2", "--no-timestamp")
    rec = json.loads(out)
    assert len(rec["results"]["entries"]) == 6
    # JSON round-trips
    assert json.loads(json.dumps(rec)) == rec


def test_cli_eisenstein():
    rc, out, _ = run_cli("eisenstein", "--n", "1", "--cusp", "inf", "--z", "2i",
                         "--s", "2", "--cmax", "150", "--no-timestamp")
    assert rc == 0
    rec = json.loads(out)
    d = rec["results"]["direct"]
    f = rec["results"]["fourier_inf_chart"]
    assert abs(d[0] - f[0]) < 1e-4
    rc, _, err = run_cli("eisenstein", "--n", "1", "--cusp", "inf", "--z", "2i",
                         "--s", "0.5", "--no-timestamp")
    assert rc == 1
    rc, out, _ = run_cli("eisenstein", "--n", "2", "--cusp", "inf", "--z", "2i",
                         "--limit", "--cmax", "200", "--no-timestamp")
    assert rc == 0
    # the value is the s = 1 limit, and the inputs say so
    assert json.loads(out)["inputs"]["s"] == "1.0"
    # a z with a negative real part through the = form
    rc, out, _ = run_cli("eisenstein", "--n", "3", "--cusp", "0", "--z=-0.2+0.9i",
                         "--limit", "--cmax", "200", "--no-timestamp")
    assert rc == 0
    assert json.loads(out)["inputs"]["z"] == "(-0.2+0.9j)"


def test_cli_eisenstein_reduces_x_by_the_width(capsys):
    # E_j(z + b) = E_j(z) for the width b = 2N: a point is summed at x
    # reduced to |x| <= b/2, and the record names the reduced point
    def results(*argv):
        assert main(["eisenstein", "--cusp", "0", *argv, "--no-timestamp"]) == 0
        return json.loads(capsys.readouterr().out)["results"]

    assert results("--n", "2", "--z=1e20+1i", "--s", "3")["z_reduced"] == [0.0, 1.0]
    for argv, b, z_far, z_near in ((("--n", "2", "--s", "3"), 4, 8.4 + 0.6j, "0.4+0.6i"),
                                   (("--n", "3", "--limit"), 6, -11.8 + 0.9j, "0.2+0.9i")):
        far = results(*argv, f"--z={z_far.real}+{z_far.imag}i")
        near = results(*argv, "--z", z_near)
        assert "z_reduced" not in near
        assert far["z_reduced"] == [math.remainder(z_far.real, b), z_far.imag]
        for key in near.keys() - {"direct_tail", "phi0", "phi0_tail"}:
            v, w = complex(*far[key]), complex(*near[key])
            assert abs(v - w) <= 1e-12 * abs(w), (argv, key)
    # a point on the edge x = b/2 is summed as given
    assert "z_reduced" not in results("--n", "2", "--z", "2+0.6i", "--s", "3")


@pytest.mark.parametrize("z", ["0.2+1.1i", "2i"])
def test_cli_gamma1_kronecker_limit(z, capsys):
    # the classical Kronecker limit formula: at s = 1 the full modular
    # group's series is -log(|Delta(z)|^2 y^12) plus its constant, with
    # Delta = q prod (1 - q^n)^24
    argv = ["eisenstein", "--group", "gamma1", "--cusp", "inf", "--z", z, "--no-timestamp"]
    assert main([*argv, "--limit"]) == 0
    limit = complex(*json.loads(capsys.readouterr().out)["results"]["limit_4pi"])
    w = parse_complex(z)
    q = cmath.exp(2j * math.pi * w)
    delta = q * math.prod((1 - q ** n) ** 24 for n in range(1, 60))
    expect = -math.log(abs(delta) ** 2 * w.imag ** 12) + klf_constant(GAMMA1)
    assert abs(limit - expect) < 1e-10
    # at s = 2 the direct sum and the Fourier chart agree within the tail
    assert main([*argv, "--s", "2"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    gap = abs(complex(*res["direct"]) - complex(*res["fourier_inf_chart"]))
    assert gap <= res["direct_tail"]


def test_cli_eisenstein_reads_its_lane_class_once(monkeypatch, capsys):
    # the Fourier chart and phi_0 of one cusp share one memoized lane read
    from collections import OrderedDict

    from fermatkl import eisenstein

    monkeypatch.setattr(eisenstein, "_TABLES", OrderedDict())
    eisenstein._phis.cache_clear()
    reads = []
    lane_sums = eisenstein._lane_sums
    monkeypatch.setattr(eisenstein, "_lane_sums", lambda *a: reads.append(1) or lane_sums(*a))
    assert main(["eisenstein", "--n", "5", "--cusp", "0", "--z", "1+2i", "--s", "2",
                 "--no-timestamp"]) == 0
    assert len(reads) == 1
    assert json.loads(capsys.readouterr().out)["results"]["phi0"][0] > 0


def test_cli_qexp():
    rc, out, _ = run_cli("qexp", "--label", "theta2", "--order", "3",
                         "--no-timestamp")
    rec = json.loads(out)
    assert rec["results"]["terms"][0] == "0/2\t1.0\t0.0"
    rc, _, err = run_cli("qexp", "--label", "f:C:0:3", "--order", "1",
                         "--no-timestamp")
    assert rc == 1  # order cannot resolve the leading term: usage error


def test_cli_verify_fast():
    rc, out, _ = run_cli("verify", "--suite", "fast", "--ns", "1,2",
                         "--no-timestamp")
    assert rc == 0
    rec = json.loads(out)
    assert rec["results"]["all_passed"] is True
    assert all(r["runtime_ms"] == 0 for r in rec["results"]["reports"])


def test_cli_verify_exit_code_two(monkeypatch):
    import fermatkl.cli as cli_mod

    def fake_suite(level, trunc, ns, workers, check_id=None):
        return [CheckReport("fake", {}, 1.0, 0.5, False, 3)]

    monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
    rc = cli_mod.main(["verify", "--suite", "fast", "--no-timestamp"])
    assert rc == 2


def test_cli_verify_check_selection():
    rc, out, _ = run_cli("verify", "--suite", "fast", "--ns", "1,2",
                         "--check-id", "scattering_consistency",
                         "--no-timestamp")
    assert rc == 0
    rec = json.loads(out)
    assert {r["check_id"] for r in rec["results"]["reports"]} == {"scattering_consistency"}


def test_cli_verify_mistyped_check_id_runs_no_check(monkeypatch, capsys):
    # the ids come from the suite's declared checks, so an id that none
    # has is a usage error before any check runs
    from fermatkl import verify

    declared, ran = verify._suite_checks, []

    def recording(*args):
        return [(name, lambda name=name, fn=fn: ran.append(name) or fn())
                for name, fn in declared(*args)]

    monkeypatch.setattr(verify, "_suite_checks", recording)
    assert main(["verify", "--suite", "full", "--ns", "4,5", "--check-id", "klf_gama2",
                 "--no-timestamp"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("usage error:") and not out and not ran
    assert main(["verify", "--suite", "full", "--ns", "4,5", "--check-id", "sum_relation",
                 "--no-timestamp"]) == 0
    assert ran == ["sum_relation"] * 4


@pytest.mark.parametrize("check_id, workers", [("cross_path", "1"), ("sumrs", "4")])
def test_cli_verify_check_id_prints_the_filtered_full_run(capsys, check_id, workers):
    # --check-id runs only its checks and prints the bytes of the whole
    # run with the other reports left out
    argv = ["verify", "--suite", "full", "--ns", "1,2,3", "--no-timestamp", "--workers", workers]
    assert main(argv) == 0
    rec = json.loads(capsys.readouterr().out)
    reports = [r for r in rec["results"]["reports"] if r["check_id"] == check_id]
    rec["results"] = {"reports": reports, "all_passed": all(r["passed"] for r in reports)}
    assert main([*argv, "--check-id", check_id]) == 0
    assert capsys.readouterr().out == json.dumps(rec, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    ["eisenstein", "--n", "2", "--cusp", "abc", "--z", "1+2i"],
    ["eisenstein", "--n", "2", "--cusp", "0/0", "--z", "1+2i"],
    ["qexp", "--label", "x:abc"],
    ["qexp", "--label", "f:A:5:3"],
    ["qexp", "--label", "f:D:0:3"],
    ["verify", "--ns", "1,x"],
    ["verify", "--ns", "2,0"],
    ["classify", "--p", "1", "--n", "2"],
    ["classify", "--n", "2"],
    ["classify", "--cusp", "0/0", "--n", "2"],
    ["classify", "--cusp", "1/2", "--q", "3", "--n", "2"],
    ["eisenstein", "--n", "2", "--cusp", "inf", "--z", "1-2i"],
    ["eisenstein", "--n", "2", "--cusp", "inf", "--z", "1-2i", "--limit"],
    ["eisenstein", "--n", "2", "--cusp", "inf", "--z", "1+0i", "--limit"],
    ["eisenstein", "--n", "2", "--cusp", "inf", "--z", "1+2i", "--s", "0.5", "--limit"],
    ["eisenstein", "--n", "2", "--cusp", "inf", "--z", "1+2i", "--s", "nan"],
    ["eisenstein", "--n", "2", "--cusp", "inf", "--z", "nan+1i", "--limit"],
    ["eisenstein", "--n", "2", "--cusp", "inf", "--z", "nan+1i", "--s", "2"],
    ["eisenstein", "--n", "2", "--cusp", "inf", "--z", "1+infi", "--s", "2"],
    ["verify", "--check-tol", "nan"],
    ["verify", "--check-tol", "inf"],
    ["verify", "--check-tol", "-1e-3"],
    ["verify", "--workers", "0"],
    ["verify", "--workers", "-2"],
    ["verify", "--suite", "fast", "--ns", "1", "--check-id", "klf_gama2"],
    ["verify", "--suite", "fast", "--ns", "1", "--check-id", "klf_gamma2"],
    ["verify", "--ns="],
    ["eisenstein", "--group", "gamma1", "--n", "9", "--cusp", "inf", "--z", "0.2+1.1i",
     "--limit"],
    ["eisenstein", "--group", "gamma1", "--n", "1", "--cusp", "inf", "--z", "2i", "--s", "2"],
    ["eisenstein", "--n", "2", "--cusp", "inf", "--z", "1+2i", "--cmax", "abc"],
    ["eisenstein", "--n", "2", "--cusp", "inf", "--z", "1+2i", "--cmax", "2.5"],
    ["eisenstein", "--n", "2", "--cusp", "inf", "--z", "1+2i", "--mmax", "0"],
    ["eisenstein", "--cusp", "inf", "--z", "2i", "--limit"],
    ["qexp", "--label", "lambda", "--order", "0"],
    ["scatter", "--n", "2", "--format", "xml"],
    ["classify", "--cusp", "1/2"],
    ["verify", "--suite", "medium"],
    ["qexp", "--label", "lambda:3", "--order", "2"],
    ["qexp", "--label", "theta2:2"],
    ["qexp", "--label", "lambda:abc:9"],
    ["qexp", "--label", "x:3:C:1"],
    ["cusps", "--n", "1_0"],
    ["qexp", "--label", "x:1_2", "--order", "1"],
    ["classify", "--cusp=1_0/3", "--n", "2"],
    ["verify", "--ns", "1_0"],
])
def test_cli_malformed_input_is_usage_error(argv, capsys):
    assert main([*argv, "--no-timestamp"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("usage error:") and not out


# complex inputs take ASCII decimal literals in the form x+yi only, where
# complex() also takes underscores, non-ASCII digits, spaces and j
@pytest.mark.parametrize("text", ["1_0+2i", "\u0661+2i", "1 + 2i", "1+2j", " 1+2i", "1+2",
                                  "i2", "+", "0x1+2i", "1e999+1i"])
@pytest.mark.parametrize("flag", ["--z", "--s"])
def test_cli_complex_inputs_take_one_grammar(text, flag, capsys):
    argv = ["eisenstein", "--n", "2", "--cusp", "inf", "--z", "1+2i", "--s", "2"]
    argv[argv.index(flag) + 1] = text
    assert main([*argv, "--no-timestamp"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("usage error:") and not out


# each flag that the CLI no longer takes, on a command that took it and
# with a value that the command accepted, so that only the flag is wrong
@pytest.mark.parametrize("argv, flags", [
    (["eisenstein", "--n", "2", "--cusp", "inf", "--z", "1+2i", "--config", "config.json"],
     ["--config"]),
    (["verify", "--suite", "fast", "--ns", "1", "--config", "config.json"], ["--config"]),
    (["qexp", "--label", "lambda", "--config", "config.json"], ["--config"]),
    (["classify", "--n", "2", "--cusp", "1/2", "--p", "-3", "--q", "1"], ["--p", "--q"]),
    (["scatter", "--n", "2", "--format", "csv", "--matrix", "natural"], ["--matrix"]),
    (["verify", "--suite", "fast", "--ns", "1", "--check-tol", "1"], ["--check-tol"]),
])
def test_cli_removed_flags_are_usage_errors(argv, flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text('{"truncation": {}}', encoding="utf-8")
    assert main([*argv, "--no-timestamp"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("usage error:") and not out
    assert all(flag in err for flag in flags)


# a valid invocation of each command, and the flags of the settings that
# it does not read
COMMANDS = {
    "cusps": (["--n", "2"], ["--cmax", "--mmax", "--order", "--config"]),
    "classify": (["--n", "2", "--cusp", "1/2"], ["--cmax", "--mmax", "--order", "--config"]),
    "scatter": (["--n", "2"], ["--cmax", "--mmax", "--order", "--config"]),
    "eisenstein": (["--n", "2", "--cusp", "inf", "--z", "1+2i"], ["--order"]),
    "verify": (["--suite", "fast", "--ns", "1"], ["--n", "--order"]),
    "qexp": (["--label", "lambda"], ["--n", "--cmax", "--mmax"]),
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_, dead) in COMMANDS.items() for flag in dead])
def test_cli_rejects_flags_the_command_does_not_read(command, flag, capsys):
    # each flag gets a valid value, so only the flag itself is wrong
    assert main([command, *COMMANDS[command][0], flag, "3", "--no-timestamp"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("usage error:") and flag in err and not out


def test_cli_provenance_lists_the_settings_read(capsys):
    # each command reports only the settings that it reads, with the
    # truncation its flags set; no check of verify reaches the Bessel
    # quadrature, so only eisenstein lists its node count
    read = {"c_max": 123, "m_max": 10}
    cases = {
        "cusps": ([], {}),
        "classify": ([], {}),
        "scatter": ([], {}),
        "eisenstein": (["--cmax", "123"], {**read, "bessel_quadrature_nodes": 200}),
        "verify": (["--cmax", "123"], read),
        "qexp": (["--order", "9"], {"order": 9}),
    }
    for command, (flags, expect) in cases.items():
        assert main([command, *COMMANDS[command][0], *flags, "--no-timestamp"]) == 0
        assert json.loads(capsys.readouterr().out)["provenance"] == expect, command


def test_cli_internal_error_exit_code(monkeypatch, capsys):
    import fermatkl.cli as cli_mod

    def broken(n):
        raise RuntimeError("broken")

    monkeypatch.setattr(cli_mod, "scattering_matrix", broken)
    assert cli_mod.main(["scatter", "--n", "2", "--no-timestamp"]) == 3
    assert "internal error" in capsys.readouterr().err
