"""Workloads of the hardyops benchmark.

A workload is a list of ops.  Each op drives hardyops from outside, through
its public functions or through ``hardyops.cli.main``, and returns the
quantities the correctness gate compares with ``reference.json``.  A quantity
is ``key -> (value, rule)``; the rule says how closely the value must match
the reference recorded at the seed commit (see ``matches``).

Why these three workloads:

* ``quadrature`` -- the default ``hardyops verify`` campaign, the
  acceptance-scale checks of criteria 1, 3, 4, 5, 7, 8, 11 and 12 and
  ``hardyops kernel`` tables.  Scalar special functions, exact kernels and
  ``scipy`` ``quad`` callbacks do almost all the work; ``discrete`` appears
  only at N <= 800.
* ``spectral`` -- criteria 9, 10 and 13 at N=2000 plus ``reversed_hardy`` at
  alpha=1.5.  Dense ``eigh`` dominates and the spectral applies reuse cached
  decompositions across checks: the read-heavy use of ``discrete``.
* ``assembly`` -- the criterion-6 ``hardy_quotient_min`` sweep and
  ``hardyops discretize --hardy-min --alpha 1.5 --N 4000`` on a grid no
  earlier op built.  Every op assembles a fresh stiffness and does a subset
  eigensolve: the write-heavy use of ``discrete``.

The seed picks inputs from pools whose reference outputs were recorded: the
check seed of the one-dimensional convolution-lemma sample points (criterion
12, N=1) and the (t, x, y) points of the kernel tables.  Neither changes how
often any layer is called: a lemma sample is one adaptive quad of a
closed-form integrand, a table point one kernel evaluation.  The Duhamel
points (criterion 11 and the campaign) and the N=2 lemma points stay at the
acceptance suite's and the CLI's seeds: their nested adaptive quadrature
costs two to three times more for some draws than for others, which would
make the work of a run, and its call counts, depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("quadrature", "spectral", "assembly")

# Check seeds whose N=1 lemma sample points have recorded references.
CHECK_SEEDS = tuple(range(8))
# Fixed check seeds: criterion 11 and 12 (N=2) as in the acceptance suite, the
# campaign at the CLI default.
DUHAMEL_SEED, LEMMA_N2_SEED, CAMPAIGN_SEED = 0, 2, 0

# Kernel-table point pools; every table point is (t, x, y) from these.
T_POOL = tuple(float(v) for v in np.logspace(-1.5, 1.5, 8))
X_POOL = tuple(float(v) for v in np.logspace(-1.5, 1.0, 12))
Y_POOL = tuple(float(v) for v in np.logspace(-1.3, 1.2, 12))
TABLE_PICK = (4, 8, 8)  # points drawn per table from (T_POOL, X_POOL, Y_POOL)
KERNEL_TABLES = (  # (kind, alpha, lambda)
    ("heat-exact", 2.0, 0.5),
    ("heat-exact", 2.0, 3.0),
    ("diff-envelope", 2.0, 0.5),
    ("diff-envelope", 1.5, 1.0),
)

# Comparison rules.  A printed precision such as ``.3f`` becomes an absolute
# tolerance of one unit in the last printed place; a quantity a criterion
# bounds at rounding level (an identity residual) must stay within that bound.
EXACT = ("exact",)


def absol(a: float) -> tuple:
    return ("abs", a)


def rel(r: float) -> tuple:
    return ("rel", r)


def cap(c: float) -> tuple:
    return ("cap", c)


def near(r: float) -> tuple:
    """|value - ref| <= r * (1 + |ref|): relative for large, absolute for small."""
    return ("near", r)


def printed(fmt: str) -> tuple:
    """Rule for a value printed with ``fmt`` ('.3f' -> abs 1e-3, '.2e' -> rel 1e-2)."""
    digits = int(fmt.strip("+.")[:-1])
    return absol(10.0 ** -digits) if fmt.endswith("f") else rel(10.0 ** -digits)


REL_FLOOR = 1e-12  # absolute slack under every relative rule


def matches(value, ref, rule: tuple) -> bool:
    kind = rule[0]
    if kind == "exact":
        return value == ref
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        return False
    if kind == "cap":
        return value <= rule[1]
    if kind == "abs":
        return abs(value - ref) <= rule[1]
    if kind == "near":
        return abs(value - ref) <= rule[1] * (1.0 + abs(ref))
    return abs(value - ref) <= rule[1] * abs(ref) + REL_FLOOR


@dataclass(frozen=True)
class Op:
    key: str                   # reference key, includes the pool pick
    run: Callable[[], dict]    # returns {quantity: (value, rule)}
    small: bool = False        # part of the reduced-size self-check run
    subset: bool = False       # result covers a subset of the reference keys


def compare(result: dict, reference: dict | None, subset: bool) -> list[str]:
    """Mismatch messages of one op against its reference (empty if it matches)."""
    if reference is None:
        return ["no reference recorded"]
    if not result:
        return ["op returned no quantities"]
    bad = [k for k in result if k not in reference]
    if not subset:
        bad += [f"{k} missing" for k in reference if k not in result]
    for k, (value, rule) in result.items():
        if k in reference and not matches(value, reference[k], rule):
            bad.append(f"{k}={value!r} vs reference {reference[k]!r} ({rule[0]})")
    return bad


# ---------------------------------------------------------------------------
# Inputs drawn from the seed
# ---------------------------------------------------------------------------

def draw_inputs(seed: int) -> dict:
    """Pool picks for one run; the same seed gives the same picks."""
    rng = np.random.default_rng(seed)
    picks = {"lemma_n1": int(rng.choice(CHECK_SEEDS))}
    tables = []
    for _ in KERNEL_TABLES:
        tables.append(tuple(sorted(int(i) for i in rng.choice(len(pool), k, replace=False))
                            for pool, k in zip((T_POOL, X_POOL, Y_POOL), TABLE_PICK)))
    picks["tables"] = tables
    return picks


def full_pool_tables() -> list:
    """Table picks covering every pool point (used to record references)."""
    every = tuple(tuple(range(len(p))) for p in (T_POOL, X_POOL, Y_POOL))
    return [every] * len(KERNEL_TABLES)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _cli(argv: list[str]) -> tuple[int, str]:
    """Run ``hardyops.cli.main`` capturing stdout; stderr is discarded."""
    from hardyops import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _flatten(prefix: str, value, rule: tuple, into: dict) -> None:
    if isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rule, into)
    elif isinstance(value, (bool, str)):
        into[prefix] = (value, EXACT)
    elif isinstance(value, (int, float)):
        into[prefix] = (float(value), rule)


# The verify reports carry full-precision values; anything a check bounds at
# 1e-5 or below is a rounding-level residual and is held to that bound, every
# other measured number must agree to 1e-6 relative (absolute below 1, where
# the values are quadrature-level discrepancies such as duhamel_max_err).
REPORT_NEAR = 1e-6
REPORT_CAP_BELOW = 1e-5


def report_quantities(reports: list[dict]) -> dict:
    """Verdicts and measured values of verify reports (as_dict form)."""
    out: dict = {}
    for i, rep in enumerate(reports):
        head = f"{i}.{rep['check_name']}"
        out[f"{head}.verdict"] = (rep["verdict"], EXACT)
        tol = rep["tolerances"]
        for key, val in rep["measured"].items():
            if key in tol and tol[key] <= REPORT_CAP_BELOW:
                out[f"{head}.{key}"] = (float(val), cap(tol[key]))
            else:
                _flatten(f"{head}.{key}", val, near(REPORT_NEAR), out)
    return out


def _verdict(ok: bool) -> tuple:
    return ("pass" if ok else "fail", EXACT)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def op_verify_campaign(seed: int) -> dict:
    code, text = _cli(["verify", "--seed", str(seed)])
    out = report_quantities(json.loads(text))
    out["exit_code"] = (code, EXACT)
    return out


def op_criterion_01() -> dict:
    from hardyops.coupling import coupling_C, exponent_p
    ps = np.linspace(-1.0 + 1e-3, 6.0 - 1e-3, 1000)
    worst_c = max(abs(coupling_C(2.0, float(p)) - p * (p - 1.0)) for p in ps)
    lams = np.concatenate([np.linspace(-0.25, 100.0, 401), [-0.25, 0.0, 2.0]])
    worst_p = max(abs(exponent_p(2.0, float(l))
                      - 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * l))) for l in lams)
    return {"worst_dC": (float(worst_c), cap(1e-11)),
            "worst_dp": (float(worst_p), cap(1e-11)),
            "verdict": _verdict(worst_c <= 1e-11 and worst_p <= 1e-11)}


def op_criterion_03() -> dict:
    from hardyops.coupling import coupling_C, gamma_integral, normalization_A
    rng = np.random.default_rng(42)
    worst = 0.0
    count = 0
    while count < 200:
        alpha = float(rng.uniform(1e-2, 2.0 - 1e-3))
        if abs(alpha - 1.0) <= 1e-3:
            continue
        p = float(rng.uniform(0.5 * (alpha - 1.0), alpha - 1e-2))
        lhs = normalization_A(1, alpha) * gamma_integral(alpha, p)
        worst = max(worst, abs(lhs - coupling_C(alpha, p)))
        count += 1
    return {"worst_dev": (worst, cap(1e-7)), "verdict": _verdict(worst <= 1e-7)}


def op_criterion_04() -> dict:
    from scipy.integrate import quad
    from hardyops.kernels import heat_exact_halfline, heat_images_halfline
    worst_img = 0.0
    for t in np.logspace(-2, 2, 10):
        for r in np.logspace(-1, 1, 10):
            for s in np.logspace(-1, 1, 10):
                a = heat_exact_halfline(0.0, float(t), float(r), float(s))
                b = heat_images_halfline(float(t), float(r), float(s))
                if b == 0.0:
                    if a != 0.0:
                        worst_img = math.inf
                    continue
                worst_img = max(worst_img, abs(a - b) / b)
    rng = np.random.default_rng(7)
    worst_semi = 0.0
    for _ in range(20):
        lam = float(rng.uniform(-0.2, 4.0))
        t, u = (float(v) for v in rng.uniform(0.2, 1.5, 2))
        r, s = (float(v) for v in rng.uniform(0.3, 2.5, 2))
        zmax = max(r, s) + 14.0 * math.sqrt(t + u) + 5.0
        val = quad(lambda z: heat_exact_halfline(lam, t, r, z)
                   * heat_exact_halfline(lam, u, z, s), 0.0, zmax,
                   points=[r, s], limit=400, epsrel=1e-10)[0]
        ref = heat_exact_halfline(lam, t + u, r, s)
        worst_semi = max(worst_semi, abs(val - ref) / ref)
    return {"images_dev": (worst_img, cap(1e-12)),
            "semigroup_dev": (worst_semi, cap(1e-6)),
            "verdict": _verdict(worst_img <= 1e-12 and worst_semi <= 1e-6)}


def op_criterion_05() -> dict:
    from hardyops import verify as V
    lams = (-0.24, 0.0, 1.0, 5.0)
    rep = V.check_heat_envelope(lams=lams, n_log=7)
    out = {}
    ok = rep.verdict
    for lam in lams:
        k21 = rep.measured[f"k2_over_k1_lam{lam:g}"]
        cup = rep.measured[f"c_upper_lam{lam:g}"]
        ok = ok and k21 < 1e3 and cup < 0.25
        out[f"k2_over_k1_lam{lam:g}"] = (k21, printed(".1f"))
        out[f"c_upper_lam{lam:g}"] = (cup, EXACT)
    out["verdict"] = _verdict(ok)
    return out


def op_criterion_07() -> dict:
    from hardyops.coupling import exponent_p
    from hardyops.kernels import master_regime_estimate, master_time_integral
    ratios = []

    def probe(alpha, d, p, s, T, S):
        ratios.append(master_time_integral(alpha, d, p, s, T, S, 1.0)
                      / master_regime_estimate(alpha, d, p, s, T, S))

    alpha, d, s = 1.2, 1, 0.5
    thr = 0.5 * alpha * (1.0 + 0.5 * s)
    for p in (0.5, thr, 1.1):
        for T in np.logspace(-3, 0, 5):
            S = (T ** (-1.0 / alpha) + 1.0) ** (-alpha)
            probe(alpha, d, p, s, float(T), float(S))
            probe(alpha, d, p, s, float(T), float(T))
        for T in np.logspace(0, 4, 5):
            S = (T ** (-1.0 / alpha) + 1.0) ** (-alpha)
            probe(alpha, d, p, s, float(T), float(S))
        for S in (1.5, 10.0):
            for ratio in np.logspace(0, 4, 5):
                probe(alpha, d, p, s, float(S * ratio), float(S))
    p2 = exponent_p(2.0, 1.0)
    for T in (0.3, 10.0, 1e3):
        S = (T ** -0.5 + 1.0) ** -2.0
        probe(2.0, 1, p2, 0.7, float(T), float(S))
    for S in (1.5, 10.0):
        for ratio in (1.0, 30.0, 1e4):
            probe(2.0, 1, p2, 0.7, float(S * ratio), float(S))
    lo, hi = min(ratios), max(ratios)
    return {"cases": (len(ratios), EXACT),
            "ratio_min": (lo, printed(".3f")), "ratio_max": (hi, printed(".3f")),
            "verdict": _verdict(lo > 1.0 / 50.0 and hi < 50.0)}


def op_criterion_08() -> dict:
    from hardyops.coupling import make_coupling
    from hardyops.kernels import pt, riesz_envelope, riesz_exact_halfline
    s = 0.7
    ratios = []
    for lam in (0.0, 2.0):
        cp = make_coupling(1, 2.0, lam)
        for r in np.logspace(-1.3, 0.7, 5):
            for rho in np.logspace(-1.15, 0.8, 5):
                ex = riesz_exact_halfline(lam, s, float(r), float(rho))
                en = riesz_envelope(cp, s, pt(float(r)), pt(float(rho)))
                ratios.append(ex / en)
            ratios.append(riesz_exact_halfline(lam, s, float(r), float(1.05 * r))
                          / riesz_envelope(cp, s, pt(float(r)), pt(float(1.05 * r))))
    spread = max(ratios) / min(ratios)
    return {"pairs": (len(ratios), EXACT), "spread": (spread, printed(".1f")),
            "verdict": _verdict(spread < 1e2)}


def op_criterion_11(seed: int) -> dict:
    from hardyops import verify as V
    rep = V.check_difference_bound(lams=(0.5, 2.0), n_duhamel=5, seed=seed)
    m = rep.measured
    ok = (rep.verdict and m["C_lam0.5"] < 1e3 and m["C_lam2"] < 1e3
          and m["duhamel_max_err"] <= 0.05)
    return {"C_lam0.5": (m["C_lam0.5"], printed(".2f")),
            "C_lam2": (m["C_lam2"], printed(".2f")),
            "duhamel_max_err": (m["duhamel_max_err"], printed(".3f")),
            "verdict": _verdict(ok)}


def op_criterion_12_lemma(N: int, nsamples: int, seed: int) -> dict:
    from hardyops import verify as V
    rep = V.check_lemma_integral(N=N, betas=(0.5, 1.0, 2.0), nsamples=nsamples,
                                 seed=seed)
    out = {f"max_over_median_beta{b:g}":
           (rep.measured[f"max_over_median_beta{b:g}"], printed(".2f"))
           for b in (0.5, 1.0, 2.0)}
    out["verdict"] = _verdict(rep.verdict)
    return out


def op_criterion_12_schur() -> dict:
    from hardyops import verify as V
    r_values = (0.0, 0.2, 0.4)
    rep = V.check_schur_prop(alpha=1.2, r_values=r_values)
    out = {f"sup_row_r{r:g}": (rep.measured[f"sup_row_r{r:g}"], printed(".1f"))
           for r in r_values}
    out["verdict"] = _verdict(rep.verdict)
    return out


def _csv_floats(values) -> str:
    return ",".join(repr(v) for v in values)


def op_kernel_table(index: int, pick: tuple) -> dict:
    """``hardyops kernel`` over the picked pool points, keyed by pool index."""
    kind, alpha, lam = KERNEL_TABLES[index]
    it, ix, iy = pick
    code, text = _cli(["kernel", "--kind", kind, "--alpha", repr(alpha),
                       "--lambda", repr(lam),
                       "--t", _csv_floats(T_POOL[i] for i in it),
                       "--x", _csv_floats(X_POOL[i] for i in ix),
                       "--y", _csv_floats(Y_POOL[i] for i in iy),
                       "--format", "json"])
    rows = json.loads(text) if code == 0 else []
    keys = [f"{a},{b},{c}" for a in it for b in ix for c in iy]
    # the kernel layer's stated accuracy (scaled Bessel) is 1e-10 relative
    return {k: (float(row["value"]), rel(1e-10)) for k, row in zip(keys, rows)} \
        if len(rows) == len(keys) else {"exit_code": (code, EXACT)}


def quadrature_ops(inputs: dict) -> list[Op]:
    c = inputs
    ops = [
        Op(f"verify_campaign@{CAMPAIGN_SEED}",
           lambda: op_verify_campaign(CAMPAIGN_SEED), small=True),
        Op("criterion_01", op_criterion_01, small=True),
        Op("criterion_03", op_criterion_03),
        Op("criterion_04", op_criterion_04),
        Op("criterion_05", op_criterion_05),
        Op("criterion_07", op_criterion_07),
        Op("criterion_08", op_criterion_08),
        Op(f"criterion_11@{DUHAMEL_SEED}", lambda: op_criterion_11(DUHAMEL_SEED)),
        Op(f"criterion_12.lemma_n1@{c['lemma_n1']}",
           lambda: op_criterion_12_lemma(1, 150, c["lemma_n1"]), small=True),
        Op(f"criterion_12.lemma_n2@{LEMMA_N2_SEED}",
           lambda: op_criterion_12_lemma(2, 96, LEMMA_N2_SEED)),
        Op("criterion_12.schur", op_criterion_12_schur),
    ]
    for i, pick in enumerate(c["tables"]):
        kind, alpha, lam = KERNEL_TABLES[i]
        ops.append(Op(f"kernel.{kind}.a{alpha:g}.lam{lam:g}",
                      lambda i=i, pick=pick: op_kernel_table(i, pick),
                      small=True, subset=True))
    return ops


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

def op_criterion_09(lam: float, s: float) -> dict:
    from hardyops import verify as V
    rep = V.check_equivalence(2.0, lam, s)
    m = rep.measured
    out = {"identity_s1_err": (m["identity_s1_err"], cap(1e-10)),
           "identity_s2_err": (m["identity_s2_err"], cap(1e-10))}
    if lam < 0.0:
        out["n_monotone_growth"] = (m["n_monotone_growth"], EXACT)
        ok = rep.verdict and m["n_monotone_growth"] >= 4
    else:
        out["family_spread"] = (m["family_spread"], printed(".2f"))
        ok = rep.verdict and m["family_spread"] <= 10.0
    out["verdict"] = _verdict(ok)
    return out


def op_criterion_10() -> dict:
    from hardyops import verify as V
    rep = V.check_generalized_hardy(2.0, 0.0, 1.6)
    m = rep.measured
    return {"slope": (m["slope"], printed(".3f")),
            "analytic_rate": (m["analytic_rate"], printed(".3f")),
            "verdict": _verdict(rep.verdict and m["slope_err"] <= 0.2)}


def op_criterion_13(alpha: float, lam: float) -> dict:
    # alpha = 2 fails by design: the measured radial slope is the local rate
    # -alpha-5/2, not the fractional -alpha-1/2; the reference records 'fail'.
    from hardyops import verify as V
    m = V.check_commutator_scaling(alpha, lam, N=2000).measured
    ok = m["slope_r_err"] <= 0.15 and m["slope_R_err"] <= 0.15
    return {"slope_r": (m["slope_r"], printed("+.3f")),
            "rate_r": (m["rate_r"], printed("+.3f")),
            "slope_R": (m["slope_R"], printed("+.3f")),
            "rate_R": (m["rate_R"], printed("+.3f")),
            "verdict": _verdict(ok)}


REVERSED_HARDY_CFG = "[reversed_hardy]\nalpha = 1.5\nlam = 1.0\ns = 1.3\n"


def op_reversed_hardy(workdir: str) -> dict:
    """``hardyops verify --config`` with one reversed_hardy section at N=2000."""
    path = os.path.join(workdir, "reversed_hardy.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(REVERSED_HARDY_CFG)
    code, text = _cli(["verify", "--config", path])
    out = report_quantities(json.loads(text))
    out["exit_code"] = (code, EXACT)
    return out


def op_low_eigenvalues(alpha: float, lam: float, count: int = 10) -> dict:
    """Lowest eigenvalues of a decomposition the checks above cached."""
    from hardyops import verify as V
    from hardyops.discrete import build_grid
    dec = V.get_dec(alpha, lam, build_grid(**V.DEFAULT_GRID))
    return {f"mu{i}": (float(v), rel(1e-8))
            for i, v in enumerate(dec.eigenvalues[:count])}


def spectral_ops(inputs: dict) -> list[Op]:
    workdir = inputs["workdir"]
    ops = [Op(f"criterion_09.lam{lam:g}.s{s:g}",
              lambda lam=lam, s=s: op_criterion_09(lam, s))
           for lam, s in ((1.0, 1.0), (1.0, 1.3), (3.0, 1.0), (3.0, 1.3),
                          (-0.24, 1.5))]
    ops.append(Op("criterion_10", op_criterion_10, small=True))
    ops.append(Op("reversed_hardy.a1.5", lambda: op_reversed_hardy(workdir)))
    ops += [Op(f"criterion_13.a{a:g}.lam{lam:g}",
               lambda a=a, lam=lam: op_criterion_13(a, lam))
            for a, lam in ((1.5, 0.0), (1.5, 1.0), (2.0, 0.0), (2.0, 1.0))]
    ops += [Op(f"eigenvalues.a{a:g}.lam{lam:g}",
               lambda a=a, lam=lam: op_low_eigenvalues(a, lam), small=True)
            for a, lam in ((1.5, 1.0), (1.5, 0.0))]
    return ops


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

CRITERION_06_SIZES = (250, 500, 1000, 2000)


def op_hardy_min(alpha: float, N: int) -> dict:
    from hardyops.discrete import build_grid, hardy_quotient_min
    nu = hardy_quotient_min(alpha, build_grid(10.0, N, 2.0))
    return {"hardy_min": (nu, printed(".4f"))}


def op_criterion_06_verdict(values: dict) -> dict:
    """Monotone tables pass; the 5% window at N=2000 fails by design."""
    from hardyops.coupling import lambda_star
    out = {}
    monotone = True
    hit = True
    for alpha in (0.5, 1.0, 1.5, 2.0):
        vals = [values[(alpha, N)] for N in CRITERION_06_SIZES]
        monotone = monotone and all(b < a for a, b in zip(vals, vals[1:]))
        target = abs(lambda_star(alpha))
        hit = hit and (abs(vals[-1]) <= 0.02 if alpha == 1.0
                       else abs(vals[-1] - target) / target <= 0.05)
    out["monotone"] = (monotone, EXACT)
    out["verdict"] = _verdict(monotone and hit)
    return out


# A grid (X=20) that the criterion-6 sweep (X=10) never builds, so no cache
# serves any row of the table.
DISCRETIZE_ARGS = ["discretize", "--hardy-min", "--alpha", "1.5", "--N", "4000",
                   "--X", "20", "--format", "json"]


def op_discretize_hardy_min() -> dict:
    code, text = _cli(DISCRETIZE_ARGS)
    out = {"exit_code": (code, EXACT)}
    for row in json.loads(text) if code == 0 else []:
        out[f"N{int(row['N'])}"] = (float(row["hardy_min"]), rel(1e-8))
    return out


def assembly_ops(inputs: dict) -> list[Op]:
    values: dict = {}

    def sweep_point(alpha, N):
        out = op_hardy_min(alpha, N)
        values[(alpha, N)] = out["hardy_min"][0]
        return out

    ops = [Op(f"criterion_06.a{alpha:g}.N{N}",
              lambda alpha=alpha, N=N: sweep_point(alpha, N), small=N <= 500)
           for alpha in (0.5, 1.0, 1.5, 2.0) for N in CRITERION_06_SIZES]
    ops.append(Op("criterion_06.verdict", lambda: op_criterion_06_verdict(values)))
    ops.append(Op("discretize.hardy_min.a1.5.N4000.X20", op_discretize_hardy_min))
    return ops


BUILDERS = {"quadrature": quadrature_ops, "spectral": spectral_ops,
            "assembly": assembly_ops}


def build_ops(workload: str, inputs: dict, small: bool = False) -> list[Op]:
    ops = BUILDERS[workload](inputs)
    return [op for op in ops if op.small] if small else ops
