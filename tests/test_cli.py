import csv
import io
import json
import math

import pytest

from hardyops import cli, coupling, discrete
from hardyops import verify as V
from hardyops.cli import main, read_table


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which strict JSON lacks."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


class TestExponent:
    def test_zero_coupling_second_order(self, capsys):
        rc, out, _ = run(capsys, "exponent", "--alpha", "2", "--lambda", "0",
                         "--format", "json")
        assert rc == 0
        rec = json.loads(out)[0]
        assert rec["p"] == pytest.approx(1.0, abs=1e-11)
        assert rec["lambda_star"] == -0.25

    def test_sharp_constant_order_one(self, capsys):
        rc, out, _ = run(capsys, "exponent", "--alpha", "1", "--lambda-star",
                         "--format", "json")
        assert rc == 0
        rec = json.loads(out)[0]
        assert abs(rec["lambda"]) <= 1e-12
        assert rec["p"] == pytest.approx(0.0, abs=1e-9)

    def test_root_finder_output_with_residual(self, capsys):
        rc, out, _ = run(capsys, "exponent", "--alpha", "0.5", "--lambda", "1",
                         "--format", "json")
        assert rc == 0
        rec = json.loads(out)[0]
        assert 0.0 < rec["p"] < 0.5
        assert rec["residual"] <= 1e-10

    def test_parameter_error_exit_code(self, capsys):
        rc, _, err = run(capsys, "exponent", "--alpha", "3.0", "--lambda", "1")
        assert rc == 2
        assert "parameter error" in err

    def test_undefined_lambda_zero_is_json_null(self, capsys):
        # lambda_zero is not defined at alpha = 2
        rc, out, _ = run(capsys, "exponent", "--alpha", "2", "--lambda", "1",
                         "--format", "json")
        assert rc == 0
        rec = strict_json(out)[0]
        assert rec["lambda_zero"] is None
        assert rec["p"] == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-12)

    def test_second_order_huge_coupling(self, capsys):
        # p = 1/2 + sqrt(lambda + 1/4) is representable although lambda is huge
        rc, out, _ = run(capsys, "exponent", "--alpha", "2", "--lambda", "1e300",
                         "--format", "json")
        assert rc == 0
        rec = strict_json(out)[0]
        assert rec["p"] == pytest.approx(1e150, rel=1e-15)
        assert rec["residual"] <= 1e-15 * 1e300

    def test_lambda_zero_flag(self, capsys):
        # at alpha = 1 the comparison constant is 1/pi
        rc, out, _ = run(capsys, "exponent", "--alpha", "1", "--lambda-zero",
                         "--format", "json")
        assert rc == 0
        rec = json.loads(out)[0]
        assert rec["lambda"] == rec["lambda_zero"] == pytest.approx(1.0 / math.pi,
                                                                    rel=1e-15)
        assert rec["residual"] <= 1e-15

    def test_r_is_positive_zero_in_json(self, capsys):
        rc, out, _ = run(capsys, "exponent", "--alpha", "0.5", "--lambda-zero",
                         "--format", "json")
        assert rc == 0
        assert '"r": 0.0,' in out
        assert math.copysign(1.0, strict_json(out)[0]["r"]) == 1.0

    def test_dimension_flag_is_gone(self, capsys):
        # lambda_0 does not depend on d, so exponent takes no --d
        with pytest.raises(SystemExit) as exc:
            main(["exponent", "--alpha", "1", "--lambda", "1", "--d", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --d 3" in capsys.readouterr().err


class TestKernelTable:
    def test_csv_round_trip(self, capsys, tmp_path):
        path = tmp_path / "kern.csv"
        rc, _, _ = run(capsys, "kernel", "--kind", "heat-exact",
                       "--lambda", "0.5", "--t", "0.5,1.0",
                       "--x", "0.5,1.0", "--y", "0.7",
                       "--format", "csv", "--out", str(path))
        assert rc == 0
        header, rows = read_table(str(path))
        assert header == ["t_or_s", "xd", "yd", "value"]
        assert len(rows) == 4
        assert all(len(r) == 4 and r[3] > 0 for r in rows)

    def test_envelope_kinds(self, capsys):
        for kind in ("heat-envelope", "riesz-envelope", "diff-envelope"):
            rc, out, _ = run(capsys, "kernel", "--kind", kind,
                             "--alpha", "1.5", "--lambda", "1.0",
                             "--t", "0.5", "--x", "0.5", "--y", "2.0",
                             "--format", "json")
            assert rc == 0
            assert json.loads(out)[0]["value"] > 0.0

    @pytest.mark.parametrize("flags, row", [
        (["--lambda", "1e300"], "t_or_s=1.0, xd=1.0, yd=1.0"),
        (["--t", "5e-324"], "t_or_s=5e-324, xd=1.0, yd=1.0"),
        # the first such cell in row order: t, then x, then y
        (["--t", "1,5e-324", "--x", "2,1,3", "--y", "1,0.5"], "t_or_s=5e-324, xd=2.0, yd=1.0"),
    ], ids=["lambda-1e300", "t-5e-324", "first-of-a-table"])
    def test_non_finite_cell_is_parameter_error(self, capsys, flags, row):
        rc, out, err = run(capsys, "kernel", "--kind", "heat-exact", "--x", "1",
                           "--y", "1", *flags)
        assert rc == 2 and out == ""
        assert err.startswith("parameter error: --kind heat-exact is nan at ")
        assert row in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["heat-exact", "heat-envelope", "riesz-envelope",
                                      "diff-envelope"])
    @pytest.mark.parametrize("x, y", [("1e300", "1"), ("1", "1e300")])
    def test_huge_coordinate_is_finite(self, capsys, kind, x, y):
        # (x - y)^2 leaves the double range; the kernels decay to 0 there
        rc, out, err = run(capsys, "kernel", "--kind", kind, "--t", "0.5",
                           "--x", x, "--y", y, "--format", "json")
        assert rc == 0 and "Traceback" not in err
        assert strict_json(out)[0]["value"] == 0.0

    def test_close_distinct_points_are_off_the_diagonal(self, capsys):
        # |x - y| = 1e-200 is no longer the root of an underflowed square, 0
        rc, out, err = run(capsys, "kernel", "--kind", "riesz-envelope", "--alpha", "1.5",
                           "--lambda", "1", "--t", "0.7", "--x", "2e-200", "--y", "1e-200",
                           "--format", "json")
        assert rc == 0 and "Traceback" not in err
        value = strict_json(out)[0]["value"]
        assert math.isfinite(value) and value > 1e90

    @pytest.mark.parametrize("y, positive", [("5e199", True), ("1e-200", False)])
    def test_far_points_are_not_at_infinity(self, capsys, y, positive):
        # |x - y| = 5e199 is no longer the root of an overflowed square, inf;
        # at --y 1e-200 the shape itself, about 1e-552, underflows to 0
        rc, out, _ = run(capsys, "kernel", "--kind", "riesz-envelope", "--alpha", "1.5",
                         "--lambda", "1", "--t", "0.7", "--x", "1e200", "--y", y,
                         "--format", "json")
        assert rc == 0
        assert (strict_json(out)[0]["value"] > 0.0) is positive

    @pytest.mark.parametrize("kind, binding", [
        ("heat-exact", "heat_exact_halfline"), ("heat-envelope", "heat_envelope"),
        ("riesz-envelope", "riesz_envelope"), ("diff-envelope", "diff_envelope")])
    def test_one_kernel_call_per_table(self, capsys, monkeypatch, kind, binding):
        from hardyops import cli
        calls = []
        kernel = getattr(cli, binding)
        monkeypatch.setattr(cli, binding, lambda *args: calls.append(1) or kernel(*args))
        rc, out, _ = run(capsys, "kernel", "--kind", kind, "--alpha",
                         "2" if kind == "heat-exact" else "1.5", "--t", "0.2,0.5,0.9",
                         "--x", "0.5,1,2,4", "--y", "0.3,3", "--format", "json")
        assert rc == 0 and len(strict_json(out)) == 24
        assert len(calls) == 1

    def test_infinite_value_is_json_null(self, capsys):
        # the Riesz envelope is infinite on the diagonal x = y
        rc, out, _ = run(capsys, "kernel", "--kind", "riesz-envelope",
                         "--alpha", "1.5", "--lambda", "1", "--t", "0.7",
                         "--x", "0.5", "--y", "0.5", "--format", "json")
        assert rc == 0
        assert strict_json(out)[0]["value"] is None


ENVELOPE_KINDS = ("heat-envelope", "riesz-envelope", "diff-envelope")
# the kernel slice of the generated edge-value sweep: base tables (kind,
# alpha, lambda) at t (s = 0.5 for the Riesz envelope), x = 1, y = 2;
# lambda = -0.079 lies just above lambda_star(0.5), so p < 0 there
SWEEP_BASES = ([("heat-exact", 2.0, lam) for lam in (0.5, -0.079)]
               + [(kind, alpha, 0.5) for kind in ENVELOPE_KINDS
                  for alpha in (0.5, 1.5, 2.0)]
               + [(kind, 0.5, -0.079) for kind in ENVELOPE_KINDS])
SWEEP_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "5e-324",
                "-0.25", "1e6")
SWEEP_CASES = ([(base, [f"{flag}={value}"]) for base in SWEEP_BASES
                for flag in ("--lambda", "--t", "--x", "--y", "--c-exp")
                for value in SWEEP_VALUES]
               + [(("riesz-envelope", 0.5, -0.079), ["--x=1e200", "--y=1e-200"]),
                  (("riesz-envelope", 0.5, -0.079), ["--x=5e-324", "--y=1e300"])]
               # t^{1/alpha} leaves the double range at moderate t for small alpha
               + [((kind, 0.01, 0.5), [f"--t={t}"])
                  for kind in ("heat-envelope", "diff-envelope") for t in ("1e4", "1e-4")])


@pytest.mark.parametrize("base, flags", SWEEP_CASES, ids=[
    f"{kind}-a{alpha:g}-lam{lam:g}-{'-'.join(f.lstrip('-') for f in flags)}"
    for (kind, alpha, lam), flags in SWEEP_CASES])
def test_kernel_edge_value_sweep(capsys, base, flags):
    # '--flag=value' keeps argparse from reading '-inf' as an option; the
    # later of two equal flags wins
    kind, alpha, lam = base
    rc, out, err = run(capsys, "kernel", f"--kind={kind}", f"--alpha={alpha!r}",
                       f"--lambda={lam!r}", "--t=0.5" if kind == "riesz-envelope"
                       else "--t=1", "--x=1", "--y=2", *flags, "--format=csv")
    assert rc in (0, 2) and "Traceback" not in err
    if rc == 0:
        for _, x, y, value in list(csv.reader(io.StringIO(out)))[1:]:
            # the Riesz envelope's singular diagonal is the one exact infinity
            assert math.isfinite(float(value)) or (kind == "riesz-envelope" and x == y)


def key_sweep(check: str, base: dict, fixed: str = "") -> list[str]:
    """[check] configs setting one key of base to each sweep value, the other
    keys to their base values, plus the fixed lines."""
    return [f"[{check}]\n{fixed}" + "".join(f"{k} = {value if k == key else v}\n"
                                            for k, v in base.items())
            for key in base for value in SWEEP_VALUES]


# the verify --config slice of the sweep: the checks whose integrals run on
# the batched Gauss-Kronrod rule, and the spectral checks on a small grid
CONFIG_SWEEP_CASES = (
    [f"[difference_bound]\nn_duhamel = 1\nlams = {value}\n" for value in SWEEP_VALUES]
    + [f"[difference_bound]\nn_duhamel = {value}\n" for value in SWEEP_VALUES]
    + [f"[lemma_integral]\nnsamples = 8\nN = {value}\n" for value in SWEEP_VALUES]
    + [f"[lemma_integral]\nnsamples = 8\nN = {N}\nbetas = 1 {value}\n"
       for N in (1, 2, 3) for value in SWEEP_VALUES]
    + [f"[lemma_integral]\nnsamples = {value}\n" for value in SWEEP_VALUES]
    + [f"[schur_prop]\n{key} = {value}\n" for key in ("alpha", "r_values", "n_x")
       for value in SWEEP_VALUES]
    + [f"[pointwise_bounds]\n{key} = {value}\n" for key in ("lam", "t")
       for value in SWEEP_VALUES]
    + [f"[heat_envelope]\nn_log = 3\nlams = {value}\n" for value in SWEEP_VALUES]
    + [f"[heat_envelope]\nn_log = {value}\n" for value in SWEEP_VALUES]
    + [case for check in ("equivalence", "generalized_hardy", "reversed_hardy")
       for case in key_sweep(check, {"alpha": "1.5", "lam": "1", "s": "1"},
                             "grid_cfg = 10 400 2\n")]
    + key_sweep("commutator_scaling", {"alpha": "1.5", "lam": "1", "X_R": "500"},
                "N = 400\n"))
# Configs that run and fail their verdict with finite values, documented
# failures rather than parameter errors (README, "verify"): the fitted
# heat-envelope constant grows with the coupling, to k2/k1 = 7.2e42 at
# lam = 1e6, and so does the fractional norm ratio, to 1.7e3 at lam = 1e6
# (alpha = 1.5, s = 1)
CONFIG_SWEEP_FAILURES = {
    "[heat_envelope]\nn_log = 3\nlams = 1e6\n": "k2_over_k1_lam1e+06",
    "[equivalence]\ngrid_cfg = 10 400 2\nalpha = 1.5\nlam = 1e6\ns = 1\n": "ratio_max"}


@pytest.mark.parametrize("section", CONFIG_SWEEP_CASES, ids=[
    "-".join(line.replace(" = ", "=").strip("[]") for line in case.splitlines())
    for case in CONFIG_SWEEP_CASES])
def test_config_edge_value_sweep(capsys, tmp_path, section):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(section)
    rc, out, err = run(capsys, "verify", "--config", str(cfg))
    if section in CONFIG_SWEEP_FAILURES:
        report = strict_json(out)[0]
        value = report["measured"][CONFIG_SWEEP_FAILURES[section]]
        assert rc == 1 and report["verdict"] == "fail" and 1e3 < value < math.inf
        return
    assert rc in (0, 2) and "Traceback" not in err
    if rc == 2:
        assert err.startswith("parameter error: ") and out == ""
    else:
        assert strict_json(out)[0]["verdict"] == "pass"


# the exponent and discretize slices: each flag of a base command line takes
# each sweep value; argparse rejects a non-integer --N or --count with exit 2
TABLE_SWEEP_CASES = (
    [(["exponent", "--alpha=1.5"], f"--lambda={value}") for value in SWEEP_VALUES]
    + [(["exponent", "--lambda=1"], f"--alpha={value}") for value in SWEEP_VALUES]
    + [(["exponent", flag], f"--alpha={value}") for flag in ("--lambda-star", "--lambda-zero")
       for value in SWEEP_VALUES]
    + [(["discretize", "--alpha=1.5", "--N=100", "--lambda=1"], f"{flag}={value}")
       for flag in ("--alpha", "--lambda", "--N", "--X", "--g", "--count")
       for value in SWEEP_VALUES]
    + [(["discretize", "--hardy-min", "--alpha=2", "--N=250"], f"{flag}={value}")
       for flag in ("--alpha", "--N", "--X", "--g") for value in SWEEP_VALUES])


@pytest.mark.parametrize("base, flag", TABLE_SWEEP_CASES, ids=[
    "-".join(a.lstrip("-") for a in (*base, flag)) for base, flag in TABLE_SWEEP_CASES])
def test_table_edge_value_sweep(capsys, base, flag):
    # the later of two equal flags wins
    try:
        rc = main([*base, flag, "--format=csv"])
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    assert rc in (0, 2) and "Traceback" not in captured.err
    if rc == 0:
        header, *rows = csv.reader(io.StringIO(captured.out))
        # lambda_zero is not defined at alpha = 2
        assert rows and all(math.isfinite(float(v)) or name == "lambda_zero"
                            for row in rows for name, v in zip(header, row))


@pytest.mark.parametrize("section, key", [
    # from r = 1/2 on the Schur weight window (r, 1 - r) is empty: 0.5 used
    # to pass with a finite value for a divergent integral, 0.6 with a
    # negative one for a positive integrand
    ("[schur_prop]\nr_values = 0.5\n", "r_values"),
    ("[schur_prop]\nr_values = 0 0.6\n", "r_values"),
    # its Gaussian majorant underflows far out, where the ratios used to be 0/0
    ("[pointwise_bounds]\nt = 0.01\n", None),
    # the alpha = 2 bands scaled by the mass overflow
    ("[generalized_hardy]\nalpha = 2\nlam = 1e300\ns = 1.6\n", "not finite in double precision"),
    ("[reversed_hardy]\nalpha = 2\nlam = 1e300\ns = 1.3\n", "not finite in double precision"),
    # the test function vanishes where a slope is fitted to its norms
    ("[generalized_hardy]\nalpha = 2\nlam = 1e6\ns = 1.6\n", "generalized_hardy: slope"),
    ("[commutator_scaling]\nalpha = 1.5\nlam = 1e6\nN = 400\n", "commutator_scaling: slope_r"),
    ("[commutator_scaling]\nalpha = 1.5\nlam = 0\nX_R = 1e6\nN = 400\n",
     "commutator_scaling: slope_R"),
    # the exact kernel underflows at every sample, which left no sample to fit
    ("[heat_envelope]\nlams = 1e300\n", "heat_envelope: at lam=1e+300 the exact kernel"),
], ids=["schur-r0.5", "schur-r0.6", "pointwise-t0.01", "generalized-hardy-a2-lam1e300",
        "reversed-hardy-a2-lam1e300", "generalized-hardy-a2-lam1e6", "commutator-lam1e6",
        "commutator-X_R1e6", "heat-envelope-lam1e300"])
def test_config_window_edges(capsys, tmp_path, section, key):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(section)
    rc, out, err = run(capsys, "verify", "--config", str(cfg))
    assert "Traceback" not in err and "Warning" not in err
    if key is None:
        assert rc == 0 and strict_json(out)[0]["verdict"] == "pass"
    else:
        assert rc == 2 and err.startswith("parameter error: ") and key in err and out == ""


@pytest.mark.parametrize("section", [
    "[generalized_hardy]\nalpha = 2\nlam = 1e300\ns = 1.6\ngrid_cfg = 7 2000 2\n",
    "[reversed_hardy]\nalpha = 2\nlam = 1e300\ns = 1.3\ngrid_cfg = 7 2000 2\n",
], ids=["generalized-hardy", "reversed-hardy"])
def test_non_finite_form_names_the_callers_inputs(capsys, tmp_path, section):
    # the form is assembled on the unit grid, but the message names the
    # check's own grid and lambda, the input at fault
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(section)
    rc, out, err = run(capsys, "verify", "--config", str(cfg))
    assert rc == 2 and out == "" and "Traceback" not in err
    assert ("the discrete form at alpha=2.0, X=7.0, N=2000, g=2.0 with lambda=1e+300 "
            "is not finite in double precision") in err


class TestDiscretize:
    def test_spectrum_table(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        rc, _, _ = run(capsys, "discretize", "--alpha", "2", "--lambda", "0",
                       "--N", str(400), "--X", repr(math.pi), "--g", "1",
                       "--count", "3",
                       "--format", "csv", "--out", str(path))
        assert rc == 0
        _, rows = read_table(str(path))
        assert rows[0][1] == pytest.approx(1.0, rel=1e-2)
        assert rows[2][1] == pytest.approx(9.0, rel=1e-2)

    def test_spectrum_flag_is_gone(self, capsys):
        # the spectrum table is the mode without --hardy-min
        with pytest.raises(SystemExit) as exc:
            main(["discretize", "--spectrum", "--alpha", "2", "--N", "100"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --spectrum" in capsys.readouterr().err

    def test_hardy_min_table(self, capsys, tmp_path):
        path = tmp_path / "hardy.csv"
        rc, _, _ = run(capsys, "discretize", "--alpha", "2", "--N", "500",
                       "--hardy-min", "--format", "csv", "--out", str(path))
        assert rc == 0
        _, rows = read_table(str(path))
        assert len(rows) == 2  # N = 250, 500
        assert rows[1][1] < rows[0][1]  # decreasing toward the target

    def test_hardy_min_below_first_size_is_parameter_error(self, capsys):
        rc, out, err = run(capsys, "discretize", "--alpha", "1.5", "--N", "8",
                           "--hardy-min")
        assert rc == 2
        assert err.startswith("parameter error: ") and "--N" in err and "250" in err
        assert "Traceback" not in err and out == ""

    def test_hardy_min_on_indefinite_form_is_parameter_error(self, capsys):
        rc, out, err = run(capsys, "discretize", "--hardy-min", "--alpha", "0.5",
                           "--g", "8", "--N", "300")
        assert rc == 2
        assert err.startswith("parameter error: ") and "not positive definite" in err
        for part in ("alpha=0.5", "X=10.0", "N=300", "g=8.0"):
            assert part in err
        assert "Traceback" not in err and out == ""

    def test_spectrum_of_overflowing_form_is_parameter_error(self, capsys):
        # lambda times the Hardy weight overflows: the message names the form
        # and lambda, as at alpha = 2, with no warning on the way
        rc, out, err = run(capsys, "discretize", "--alpha", "1.5", "--N", "100",
                           "--lambda", "1e307")
        assert rc == 2 and out == ""
        assert err == ("parameter error: the discrete form at alpha=1.5, X=10.0, N=100, "
                       "g=2.0 with lambda=1e+307 is not finite in double precision\n")

    def test_spectrum_of_huge_finite_form(self, capsys):
        # the form is finite at lambda = 1e305, and Lanczos on the exactly
        # rescaled inverse keeps its relative digits (dense eigh of the form
        # over lambda gives 3.2590754604182e303 too)
        rc, out, err = run(capsys, "discretize", "--alpha", "1.5", "--N", "100",
                           "--lambda", "1e305", "--count", "1", "--format", "json")
        assert rc == 0 and err == ""
        assert strict_json(out)[0]["eigenvalue"] == pytest.approx(3.2590754604182e303,
                                                                  rel=1e-12)

    def test_hardy_min_table_past_dense_cap_at_alpha2(self, capsys, tmp_path):
        path = tmp_path / "hardy.csv"
        rc, _, _ = run(capsys, "discretize", "--alpha", "2", "--N", "64000",
                       "--hardy-min", "--format", "csv", "--out", str(path))
        assert rc == 0
        _, rows = read_table(str(path))
        assert [r[0] for r in rows] == [250 * 2 ** k for k in range(9)]
        vals = [r[1] for r in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.25

    def test_alpha2_spectrum_runs_past_dense_cap(self, capsys):
        # bisection on the bands forms no eigenvector, so any N runs
        rc, out, err = run(capsys, "discretize", "--alpha", "2", "--N", "64000",
                           "--count", "3", "--format", "json")
        assert rc == 0 and err == ""
        vals = [r["eigenvalue"] for r in strict_json(out)]
        assert vals == pytest.approx([(math.pi / 10.0) ** 2 * k * k for k in (1, 2, 3)],
                                     rel=0.0, abs=1e-6)

    @pytest.mark.parametrize("alpha, N, g", [(2.0, 700, 4.0), (2.0, 2000, 4.0),
                                             (2.0, 2000, 6.0), (1.5, 700, 6.0)])
    def test_spectrum_on_graded_mesh(self, capsys, alpha, N, g):
        # the full MRRR solve printed 21.56, 5015.0, 2233.4 and 89.78 here;
        # the lowest eigenvalue is the Dirichlet one (pi/10)^2 at alpha = 2,
        # and at alpha = 1.5 it agrees with the g = 2, N = 2000 value
        argv = ["discretize", "--alpha", str(alpha), "--count", "1", "--format", "json"]
        rc, out, _ = run(capsys, *argv, "--N", str(N), "--g", str(g))
        assert rc == 0
        if alpha == 2.0:
            ref = (math.pi / 10.0) ** 2
        else:
            ref = strict_json(run(capsys, *argv, "--N", "2000", "--g", "2")[1])[0]["eigenvalue"]
        assert strict_json(out)[0]["eigenvalue"] == pytest.approx(ref, rel=0.0, abs=1e-5)

    def test_spectrum_with_count_n_matches_eigendecompose(self, capsys):
        # --count N-1 asks for every eigenvalue, past what Lanczos can give
        rc, out, _ = run(capsys, "discretize", "--alpha", "1.5", "--N", "16", "--format", "json")
        assert rc == 0
        ref = discrete.eigendecompose(discrete.assemble_form(
            1.5, 0.0, discrete.build_grid(10.0, 16, 2.0))).eigenvalues
        assert [r["eigenvalue"] for r in strict_json(out)] == pytest.approx(ref, rel=1e-12,
                                                                            abs=0.0)

    def test_lambda_below_sharp_constant_is_parameter_error(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a grid was built before lambda was checked")
        monkeypatch.setattr(cli, "build_grid", no_work)
        rc, out, err = run(capsys, "discretize", "--alpha", "1.5", "--N", "300",
                           "--lambda", "-0.07")
        assert rc == 2 and out == ""
        assert err == ("parameter error: lambda=-0.07 below the sharp constant "
                       f"{coupling.lambda_star(1.5)!r}\n")

    def test_indefinite_form_at_sharp_constant_is_parameter_error(self, capsys):
        # the lumped Hardy term makes this graded form indefinite, where it
        # printed -4.0e8; the continuous form is nonnegative at lambda_star
        lam = repr(coupling.lambda_star(1.5))
        rc, out, err = run(capsys, "discretize", "--alpha", "1.5", "--N", "300", "--g", "4",
                           "--lambda", lam)
        assert rc == 2 and out == ""
        assert err == ("parameter error: the discrete form at alpha=1.5, X=10.0, N=300, "
                       f"g=4.0 with lambda={lam} is not positive definite\n")

    @pytest.mark.parametrize("g, lam", [("3", "-0.25"), ("4", "-0.25"), ("6", "-0.1")])
    def test_indefinite_second_order_form_is_parameter_error(self, capsys, g, lam):
        # bisection ran on these indefinite bands and printed -1.72e12,
        # -6.73e19 and -9.45e30 with exit 0; the continuous forms are positive
        rc, out, err = run(capsys, "discretize", "--alpha", "2", "--N", "700", "--g", g,
                           "--lambda", lam)
        assert rc == 2 and out == ""
        assert err == ("parameter error: the discrete form at alpha=2.0, X=10.0, N=700, "
                       f"g={float(g)} with lambda={float(lam)!r} is not positive definite\n")

    def test_second_order_sharp_coupling_on_g2_prints(self, capsys):
        rc, out, _ = run(capsys, "discretize", "--alpha", "2", "--N", "700", "--lambda",
                         "-0.25", "--count", "1", "--format", "json")
        assert rc == 0
        assert strict_json(out)[0]["eigenvalue"] == pytest.approx(0.0622681, rel=1e-6)

    def test_hardy_min_ignores_X(self, capsys):
        # the quotient is dilation-invariant and computed at X = 1, so an X
        # whose own form would leave double precision prints the X = 1 table
        argv = ["discretize", "--hardy-min", "--alpha", "2", "--N", "250", "--X"]
        rc, out, err = run(capsys, *argv, "1e-300")
        assert rc == 0 and err == ""
        assert out == run(capsys, *argv, "1")[1]

    def test_spectrum_at_small_X_is_the_dilated_unit_spectrum(self, capsys):
        # X^{-alpha} = 1e300 times the unit spectrum stays in double range
        argv = ["discretize", "--alpha", "1.5", "--N", "100", "--count", "5",
                "--format", "json", "--X"]
        rc, out, _ = run(capsys, *argv, "1e-200")
        assert rc == 0
        unit = [r["eigenvalue"] for r in json.loads(run(capsys, *argv, "1")[1])]
        tiny = [r["eigenvalue"] for r in strict_json(out)]
        assert tiny == pytest.approx([1e300 * v for v in unit], rel=1e-14)

    def test_dense_cap_is_checked_before_assembly(self, capsys, tmp_path, monkeypatch):
        def entered(alpha, grid):
            raise AssertionError(f"assembly entered at N={grid.N}")
        monkeypatch.setattr(discrete, "_nonlocal_stiffness", entered)
        cfg = tmp_path / "big.cfg"
        cfg.write_text("[equivalence]\nalpha = 1.5\nlam = 1\ns = 1\n"
                       "grid_cfg = 10 4001 2\n")
        for argv in (["discretize", "--alpha", "1.5", "--N", "4001"],
                     ["verify", "--config", str(cfg)]):
            rc, out, err = run(capsys, *argv)
            assert rc == 2
            assert err.startswith("parameter error: ") and "dense solver capped" in err
            assert out == ""


class TestParameterErrors:
    @pytest.mark.parametrize("argv, name", [
        (["kernel", "--kind", "riesz-envelope", "--alpha", "2", "--d", "0",
          "--t", "0.5", "--x", "1", "--y", "2"], "d must be"),
        (["kernel", "--kind", "diff-envelope", "--d", "0", "--x", "1", "--y", "2"],
         "d must be"),
        (["kernel", "--kind", "diff-envelope", "--d", "-2", "--x", "1", "--y", "2"],
         "d must be"),
        (["kernel", "--kind", "diff-envelope", "--c-exp", "-1", "--x", "1", "--y", "2"],
         "c_exp"),
        (["kernel", "--kind", "heat-exact", "--alpha", "1.5", "--x", "1", "--y", "2"],
         "--alpha"),
        (["discretize", "--alpha", "1.5", "--N", "100", "--count", "-3"],
         "count must be an integer between 1 and N-1 = 99, the number of eigenvalues, got -3"),
        (["kernel", "--kind", "heat-exact", "--d", "0", "--x", "1", "--y", "1"], "--d"),
        (["kernel", "--kind", "heat-exact", "--c-exp", "0.5", "--x", "1", "--y", "1"],
         "--c-exp"),
        (["kernel", "--kind", "riesz-envelope", "--c-exp", "0.5", "--t", "0.5",
          "--x", "1", "--y", "2"], "--c-exp"),
        (["discretize", "--hardy-min", "--alpha", "1.5", "--N", "250", "--lambda", "5"],
         "--lambda"),
        (["discretize", "--hardy-min", "--alpha", "2", "--N", "250", "--count", "3"],
         "--count"),
        (["exponent", "--alpha", "1", "--lambda", "0.5", "--lambda-star"], "--lambda"),
        (["exponent", "--alpha", "1", "--lambda", "0.5", "--lambda-zero"], "--lambda"),
        (["exponent", "--alpha", "1", "--lambda-star", "--lambda-zero"], "--lambda-zero"),
        (["discretize", "--alpha", "1.5", "--N", "100", "--X", "inf"], "X must"),
        (["discretize", "--alpha", "1.5", "--N", "100", "--g", "inf"], "grading"),
        (["discretize", "--alpha", "1.5", "--N", "100", "--g", "nan"], "grading"),
        (["discretize", "--alpha", "2", "--N", "100", "--lambda", "nan"], "lambda"),
        (["exponent", "--alpha", "1", "--lambda", "nan"], "lambda must be finite"),
        (["kernel", "--kind", "heat-exact", "--x", "inf", "--y", "1"], "--x"),
        (["kernel", "--kind", "heat-exact", "--lambda", "nan", "--x", "1", "--y", "1"],
         "lambda"),
        (["kernel", "--kind", "heat-exact", "--lambda", "inf", "--x", "1", "--y", "1"],
         "lambda must be finite"),
        (["kernel", "--kind", "heat-exact", "--x", ",", "--y", "1"], "--x"),
        (["kernel", "--kind", "diff-envelope", "--t", "nan", "--x", "1", "--y", "2"],
         "--t"),
        (["kernel", "--kind", "heat-envelope", "--lambda", "nan", "--x", "1", "--y", "2"],
         "lambda must be finite"),
        (["kernel", "--kind", "heat-envelope", "--c-exp", "nan", "--x", "1", "--y", "2"],
         "c_exp"),
        (["discretize", "--alpha", "1.5", "--N", "100", "--X", "1e300"],
         "alpha=1.5, X=1e+300, N=100, g=2.0"),
        (["discretize", "--alpha", "1.5", "--N", "100", "--X", "1e-300"],
         "alpha=1.5, X=1e-300, N=100, g=2.0"),
        (["discretize", "--alpha", "1.5", "--N", "100", "--X", "1e-250"],
         "alpha=1.5, X=1e-250, N=100, g=2.0"),
        (["exponent", "--alpha", "1", "--lambda", "1e300"], "lambda=1e+300 is too large"),
        (["exponent", "--alpha", "5e-324", "--lambda", "1"], "alpha must lie in [0.01, 2]"),
        (["exponent", "--alpha", "1e-7", "--lambda", "1"], "alpha must lie in [0.01, 2]"),
        (["kernel", "--kind", "heat-envelope", "--alpha", "1e-300", "--x", "1", "--y", "2"],
         "alpha must lie in [0.01, 2]"),
        (["kernel", "--kind", "heat-exact", "--x", "abc", "--y", "1"], "--x"),
        (["kernel", "--kind", "heat-exact", "--t", "1,abc", "--x", "1", "--y", "1"], "--t"),
        (["kernel", "--kind", "heat-exact", "--x", "1", "--y", "1e"], "--y"),
        (["exponent", "--alpha", "1"], "provide --lambda, --lambda-star or --lambda-zero"),
        (["discretize", "--alpha", "2", "--N", "16", "--count", "100"],
         "count must be an integer between 1 and N-1 = 15"),
    ], ids=["riesz-d0", "diff-d0", "diff-d-2", "diff-c-exp",
            "heat-exact-alpha", "discretize-count", "heat-exact-d", "heat-exact-c-exp",
            "riesz-c-exp", "hardy-min-lambda", "hardy-min-count",
            "exponent-lambda-with-star",
            "exponent-lambda-with-zero", "exponent-star-with-zero",
            "discretize-X-inf", "discretize-g-inf", "discretize-g-nan",
            "discretize-lambda-nan", "exponent-lambda-nan", "heat-exact-x-inf",
            "heat-exact-lambda-nan", "heat-exact-lambda-inf", "heat-exact-empty-x", "diff-t-nan",
            "heat-envelope-lambda-nan", "heat-envelope-c-exp-nan", "discretize-X-huge",
            "discretize-X-tiny", "spectrum-X-tiny", "exponent-lambda-huge",
            "exponent-alpha-subnormal", "exponent-alpha-below-min",
            "heat-envelope-alpha-tiny", "heat-exact-x-word", "heat-exact-t-word",
            "heat-exact-y-bare-exponent", "exponent-no-lambda", "discretize-count-above-n"])
    def test_bad_input_is_parameter_error(self, capsys, argv, name):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert err.startswith("parameter error: ") and name in err
        assert "Traceback" not in err and out == ""

    def test_spectrum_count_runs_up_to_n_minus_one(self, capsys):
        # the default 20 rows become N-1 on a grid with fewer eigenvalues
        for argv in (["--count", "15"], []):
            rc, out, _ = run(capsys, "discretize", "--alpha", "2", "--N", "16",
                             "--format", "csv", *argv)
            assert rc == 0
            assert len(out.splitlines()) == 16

    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--check", "schur_prop", "--out", ""], "--out"),
        (["verify", "--check", "schur_prop", "--summary", ""], "--summary"),
        (["exponent", "--alpha", "1", "--lambda", "1", "--out", ""], "--out"),
        (["kernel", "--kind", "heat-exact", "--x", "1", "--y", "1", "--out", ""], "--out"),
        (["discretize", "--alpha", "2", "--N", "100", "--out", ""], "--out"),
    ], ids=["verify-out", "verify-summary", "exponent-out", "kernel-out", "discretize-out"])
    def test_empty_output_path_is_parameter_error(self, capsys, monkeypatch, argv, flag):
        # rejected before any work: neither the campaign nor a spectrum runs
        def no_work(*args, **kwargs):
            raise AssertionError("computed before the output path was checked")
        monkeypatch.setattr(V, "run_all", no_work)
        monkeypatch.setattr(cli, "lowest_eigenvalues", no_work)
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err == f"parameter error: {flag} needs a file path, got an empty one\n"


# grid_cfg = X N g, each out of its range in turn
GRID_CFG_SWEEP = [
    *[(f"{X} 400 2", "X must be positive and finite") for X in ("0", "-1", "nan")],
    ("10 0 2", "N must be at least 16, got 0"), ("10 15 2", "N must be at least 16, got 15"),
    ("10 4001 2", "dense solver capped at N=4000, got N=4001"),
    *[(f"10 {N} 2", f"grid_cfg = '10 {N} 2'") for N in ("400.5", "1e3")],
    *[(f"10 400 {g}", "grading exponent must be finite and >= 1") for g in ("0.5", "nan", "inf")],
]


class TestVerify:
    def test_single_check_pass(self, capsys, tmp_path):
        out = tmp_path / "reports.json"
        summary = tmp_path / "summary.csv"
        rc = main(["verify", "--check", "schur_prop", "--out", str(out),
                   "--summary", str(summary)])
        captured = capsys.readouterr()
        assert rc == 0
        data = json.loads(out.read_text())
        assert data[0]["check_name"] == "schur_prop"
        assert data[0]["verdict"] == "pass"
        assert "[PASS] schur_prop" in captured.err
        assert summary.read_text().startswith("check_name,")

    def test_summary_without_out(self, capsys, tmp_path):
        summary = tmp_path / "summary.csv"
        rc, out, _ = run(capsys, "verify", "--check", "schur_prop",
                         "--summary", str(summary))
        assert rc == 0
        assert json.loads(out)[0]["check_name"] == "schur_prop"
        assert summary.read_text().startswith("check_name,")

    def test_summary_has_the_table_line_end(self, capsys, tmp_path, monkeypatch):
        summary = tmp_path / "summary.csv"
        report = V.VerificationReport("schur_prop", {}, {"sup_row_r0": 3.0},
                                      {"sup_row_r0": 1e3}, True)
        monkeypatch.setattr(V, "run_all", lambda config, seed, check: [report, report])
        rc, _, _ = run(capsys, "verify", "--summary", str(summary))
        assert rc == 0
        data = summary.read_bytes()
        assert b"\r" not in data
        assert data.count(b"\n") == 3 and data.endswith(b"pass\n")

    def test_check_keeps_only_its_config_sections(self, capsys, tmp_path):
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text("[schur_prop]\nalpha = 1.2\nn_x = 3\n"
                       "[schur_prop:b]\nalpha = 1.4\nn_x = 3\n"
                       "[lemma_integral]\nnsamples = 0\n")
        rc, out, err = run(capsys, "verify", "--check", "schur_prop", "--config", str(cfg))
        assert rc == 0
        assert [r["params"]["alpha"] for r in strict_json(out)] == [1.2, 1.4]
        assert "lemma_integral" not in err
        rc, out, err = run(capsys, "verify", "--check", "heat_envelope", "--config", str(cfg))
        assert rc == 2 and out == ""
        assert err == "parameter error: config has no section for check 'heat_envelope'\n"

    def test_check_matches_a_spaced_section_name(self, capsys, tmp_path):
        # the section's check is the text before its first ':', stripped
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text("[equivalence : a]\nalpha = 2\nlam = 1\ns = 1.3\ngrid_cfg = 10 400 2\n")
        rc, out, _ = run(capsys, "verify", "--check", "equivalence", "--config", str(cfg))
        assert rc == 0
        assert [r["check_name"] for r in strict_json(out)] == ["equivalence"]

    def test_config_campaign_failure_exit_code(self, capsys, tmp_path):
        # at alpha = 0.5 this grid misses the boundary rate by more than SLOPE_TOL
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text(
            "[commutator_scaling]\n"
            "alpha = 0.5\n"
            "lam = 0\n"
            "N = 800\n"
            "X_R = 250\n"
        )
        out = tmp_path / "reports.json"
        rc = main(["verify", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert rc == 1
        data = json.loads(out.read_text())
        assert data[0]["verdict"] == "fail"
        assert data[0]["measured"]["slope_r_err"] > data[0]["tolerances"]["slope_r_err"]

    def test_unknown_check_is_parameter_error(self, capsys):
        rc, _, err = run(capsys, "verify", "--check", "bogus")
        assert rc == 2
        assert "parameter error" in err

    @pytest.mark.parametrize("section, key", [
        ("[lemma_integral]\nbogus = 3\n", "'bogus'"),
        ("[commutator_scaling]\nalpha = 2\nlam = 1\nn = 1\n", "'n'"),
        ("[equivalence]\nalpha = 2\nlam = 1\ns = 1.3\ngrid_cfg = 10 400\n", "grid_cfg"),
        ("[pointwise_bounds]\nt = soon\n", "t = 'soon'"),
        ("[equivalence]\nalpha = 2\n", "lam, s"),
        ("[schur_prop]\nseed = 3\n", "'seed'"),
        ("[lemma_integral]\nmax_over_median_cap = 1e-9\n", "'max_over_median_cap'"),
        ("[commutator_scaling]\nalpha = 1.5\nlam = 0\nslope_tol = 0.35\n", "'slope_tol'"),
        ("[generalized_hardy]\nalpha = 2\nlam = 0\ngrid_cfg = 10 400 2\ns = -1\n", "s must"),
        ("[generalized_hardy]\nalpha = 2\nlam = 0\ngrid_cfg = 10 400 2\ns = 0\n", "s must"),
        ("[generalized_hardy]\nalpha = 2\nlam = 0\ngrid_cfg = 10 400 2\ns = 2.5\n",
         "s must"),
        ("[lemma_integral]\nbetas =\n", "lemma_integral"),
        ("[heat_envelope]\nlams =\n", "heat_envelope"),
        ("[lemma_integral]\nnsamples = 0\n", "nsamples"),
        ("[lemma_integral]\nnsamples = -3\n", "nsamples"),
        ("[heat_envelope]\nn_log = 0\n", "n_log"),
        ("[schur_prop]\nn_x = 0\n", "n_x"),
        ("[difference_bound]\nn_duhamel = 0\n", "n_duhamel"),
        ("[difference_bound]\nlams =\n", "lams"),
        ("[equivalence]\nalpha = 2\nlam = 1\ns = 1.3\ngrid_cfg = inf 400 2\n", "X must"),
        *[(f"[equivalence]\nalpha = 2\nlam = 1\ns = 1.3\ngrid_cfg = {value}\n", key)
          for value, key in GRID_CFG_SWEEP],
        ("[pointwise_bounds]\nt = inf\n", "[pointwise_bounds] t"),
        ("[schur_prop]\nalpha = nan\n", "[schur_prop] alpha"),
        ("[lemma_integral]\nbetas = nan\n", "[lemma_integral] betas"),
        *[(f"[reversed_hardy]\nalpha = 2\nlam = 1\ns = 1.3\ngrid_cfg = {X} 200 2\n",
           "reversed_hardy: the test function") for X in ("1e-100", "1e-6", "0.1", "1")],
        # the first member without a norm is not the family's first column
        ("[reversed_hardy]\nalpha = 2\nlam = 1\ns = 1.3\ngrid_cfg = 1e-6 200 2\n",
         "reversed_hardy: the test function interior bump at 1 has norm 0.0"),
        *[(f"[generalized_hardy]\nalpha = 2\nlam = 0\ns = 1.6\ngrid_cfg = {X} 200 2\n",
           "generalized_hardy: the test function interior bump at 2")
          for X in ("1e-100", "1e-6", "0.1", "1e6", "1e100")],
        # the spectrum itself, 1e-400 times the unit one, underflows first
        ("[generalized_hardy]\nalpha = 2\nlam = 0\ns = 1.6\ngrid_cfg = 1e200 200 2\n",
         "X=1e+200, N=200, g=2.0 underflows in double precision"),
        # at 1e-100 the bump's squared norms are subnormal: too few digits
        *[(f"[equivalence]\nalpha = 2\nlam = 1\ns = 1.3\ngrid_cfg = {X} 200 2\n",
           "equivalence: the test function boundary bump") for X in ("1e6", "1e100", "1e-100")],
        # the spectrum to the power s overflows: a non-finite norm, without a warning
        ("[equivalence]\nalpha = 2\nlam = -0.24\ns = 1.5\ngrid_cfg = 1e-100 200 2\n",
         "heat image t=0.04 of the singular profile has norm"),
        ("[generalized_hardy]\nalpha = 2\nlam = 0\ns = 1.6\ngrid_cfg = 2000 200 2\n",
         "fewer than two windows"),
        ("[generalized_hardy]\nalpha = 2\nlam = 0\ns = 1.6\ngrid_cfg = 4000 200 2\n",
         "fit window"),
        ("[reversed_hardy]\nalpha = 1.5\nlam = 1\ns = 1.3\ngrid_cfg = 1e-300 200 2\n",
         "not finite in double precision"),
    ], ids=["unknown-key", "wrong-case-key", "short-grid-cfg", "non-numeric", "missing-keys",
            "seed-for-deterministic-check", "deleted-key", "deleted-slope-tol",
            "s-negative", "s-zero",
            "s-above-two", "no-betas", "no-lams", "nsamples-zero", "nsamples-negative",
            "n-log-zero", "n-x-zero", "n-duhamel-zero", "difference-bound-no-lams",
            "grid-cfg-inf",
            *(f"grid-cfg-{value.replace(' ', '-')}" for value, _ in GRID_CFG_SWEEP),
            "t-inf", "alpha-nan", "betas-nan",
            *(f"reversed-hardy-X{X}" for X in ("1e-100", "1e-6", "0.1", "1")),
            "reversed-hardy-X1e-6-member",
            *(f"generalized-hardy-X{X}" for X in ("1e-100", "1e-6", "0.1", "1e6", "1e100",
                                                 "1e200")),
            "equivalence-X1e6", "equivalence-X1e100", "equivalence-X1e-100",
            "equivalence-power-overflow", "generalized-hardy-no-windows",
            "generalized-hardy-no-fit-window", "X-1e-300"])
    def test_bad_config_is_parameter_error(self, capsys, tmp_path, section, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(section)
        rc, _, err = run(capsys, "verify", "--config", str(cfg))
        assert rc == 2
        assert err.startswith("parameter error: ") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section", [
        "[equivalence]\nalpha = 2\nlam = 1\ns = 1.3\n",
        "[generalized_hardy]\nalpha = 2\nlam = 0\ns = 1.6\n",
        "[reversed_hardy]\nalpha = 2\nlam = 1\ns = 1.3\n",
    ], ids=["equivalence", "generalized-hardy", "reversed-hardy"])
    def test_small_grid_that_resolves_the_test_functions_passes(self, capsys, tmp_path,
                                                                section):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(section + "grid_cfg = 3 200 2\n")
        rc, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert rc == 0 and '"verdict": "pass"' in out

    @pytest.mark.parametrize("text", ["alpha = 2\n", "[schur_prop]\nn_x = 3\nn_x = 4\n"],
                             ids=["no-section-header", "duplicate-key"])
    def test_malformed_ini_is_error(self, capsys, tmp_path, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        rc, _, err = run(capsys, "verify", "--config", str(cfg))
        assert rc == 2
        assert err.startswith("error: ") and "Traceback" not in err
