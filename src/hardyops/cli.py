"""Command-line front end.

Subcommands:
    exponent    -- coupling data (p, lambda_star, lambda_zero, q, r) for (alpha, lambda)
    kernel      -- tabulate exact kernels / envelopes over a sample grid (CSV)
    discretize  -- eigenvalue tables or Hardy-minimum convergence tables
    verify      -- run verification checks, emit JSON reports + CSV summary

Exit codes: 0 success, 1 verification failure, 2 parameter error.
CSV output: comma-separated, header row, '.' decimal point, no locale,
'\n' line ends.
JSON output: strict, a non-finite number is written as null.
Config files for `verify`: INI-style sections per check, flat key=value pairs.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import json
import math
import sys

import numpy as np

from hardyops import verify as V
from hardyops.coupling import (coupling_C, lambda_star, lambda_zero, make_coupling,
                               require_lambda)
from hardyops.discrete import build_grid, hardy_quotient_min, lowest_eigenvalues
from hardyops.kernels import (diff_envelope, heat_envelope, heat_exact_halfline,
                              pt, riesz_envelope)
from hardyops.specfun import DomainError


def _floats(flag: str, text: str) -> list[float]:
    """The comma-separated values of flag: at least one, all finite."""
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        vals = []
    if not vals or not all(math.isfinite(v) for v in vals):
        raise DomainError(f"{flag} needs one or more finite comma-separated "
                          f"numbers, got {text!r}")
    return vals


@contextlib.contextmanager
def _destination(path: str | None):
    """stdout when path is None, else the file at path (UTF-8, newline="")."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def dump_json(obj, stream) -> None:
    """Strict JSON with a trailing newline: NaN and infinities become null."""
    # floats round-trip exactly through repr; only the non-finite ones change
    obj = json.loads(json.dumps(obj, default=float), parse_constant=lambda _: None)
    json.dump(obj, stream, indent=1, allow_nan=False)
    stream.write("\n")


def write_table(stream, header: list[str], rows: list[list]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                         else v for v in row])


def read_table(path: str) -> tuple[list[str], list[list[float]]]:
    """Parse a CSV emitted by this tool: header row + float cells."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(cell) for cell in row] for row in reader]
    return header, rows


def _emit(args, header, rows):
    with _destination(args.out) as out:
        if args.format == "json":
            dump_json([dict(zip(header, row)) for row in rows], out)
        elif args.format == "csv":
            write_table(out, header, rows)
        else:
            widths = [max(len(str(h)), 12) for h in header]
            out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
            for row in rows:
                out.write("  ".join((f"{v:.10g}" if isinstance(v, (float, np.floating))
                                     else str(v)).ljust(w)
                                    for v, w in zip(row, widths)) + "\n")


def _reject_unused(mode: str, flags: dict) -> None:
    """Parameter error naming each flag given on the command line (not None)
    that `mode` does not read, instead of ignoring it silently."""
    given = [flag for flag, value in flags.items() if value is not None]
    if given:
        raise DomainError(f"{mode} does not use {', '.join(given)}")


def cmd_exponent(args) -> int:
    alpha = args.alpha
    if args.lambda_star_flag:
        _reject_unused("--lambda-star", {"--lambda": args.lam,
                                         "--lambda-zero": args.lambda_zero_flag})
        lam = lambda_star(alpha)
    elif args.lambda_zero_flag:
        _reject_unused("--lambda-zero", {"--lambda": args.lam})
        lam = lambda_zero(alpha)
    elif args.lam is None:
        raise DomainError("provide --lambda, --lambda-star or --lambda-zero")
    else:
        lam = args.lam
    params = make_coupling(1, alpha, lam)
    resid = abs(coupling_C(alpha, params.p) - lam)
    header = ["alpha", "lambda", "p", "lambda_star", "lambda_zero", "q", "r",
              "p0", "residual"]
    row = [alpha, lam, params.p, params.lambda_star,
           params.lambda_zero if params.lambda_zero is not None else float("nan"),
           params.q, params.r, params.p0, resid]
    _emit(args, header, [row])
    return 0


def cmd_kernel(args) -> int:
    lam = args.lam if args.lam is not None else 0.0
    xs = _floats("--x", args.x)
    ys = _floats("--y", args.y)
    ts = _floats("--t", args.t)
    # column order contract: (t_or_s, xd, yd, value), in row order
    t, x, y = (v.ravel() for v in np.meshgrid(ts, xs, ys, indexing="ij"))
    if args.kind == "heat-exact":
        if args.alpha != 2.0:
            raise DomainError(f"--kind heat-exact is the alpha = 2 kernel; "
                              f"got --alpha {args.alpha}")
        _reject_unused("--kind heat-exact", {"--d": args.d, "--c-exp": args.c_exp})
        values = heat_exact_halfline(lam, t, x, y)
    else:
        params = make_coupling(1 if args.d is None else args.d, args.alpha, lam)
        if args.kind == "riesz-envelope":
            _reject_unused("--kind riesz-envelope", {"--c-exp": args.c_exp})
            values = riesz_envelope(params, t, pt(x), pt(y))
        else:
            envelope = heat_envelope if args.kind == "heat-envelope" else diff_envelope
            c_exp = 0.25 if args.c_exp is None else args.c_exp
            values = envelope(params, t, pt(x), pt(y), c_exp)
    # the Riesz envelope's singular diagonal is the one exact infinity
    bad = ~np.isfinite(values) & ((x != y) | (args.kind != "riesz-envelope"))
    rows = np.column_stack((t, x, y, values)).tolist()
    if np.any(bad):
        t, x, y, v = rows[int(np.argmax(bad))]  # the first such cell in row order
        raise DomainError(f"--kind {args.kind} is {v!r} at t_or_s={t!r}, xd={x!r}, "
                          f"yd={y!r}: not finite in double precision")
    _emit(args, ["t_or_s", "xd", "yd", "value"], rows)
    return 0


def cmd_discretize(args) -> int:
    lstar = lambda_star(args.alpha)
    if args.hardy_min:
        _reject_unused("--hardy-min (the lambda = 0 Hardy quotient)",
                       {"--lambda": args.lam, "--count": args.count})
        if args.N < 250:
            raise DomainError(f"--hardy-min needs --N >= 250, its smallest "
                              f"table size; got {args.N}")
        target = abs(lstar)
        rows = []
        for n in sorted(args.N // 2 ** k for k in range(args.N.bit_length())
                        if args.N // 2 ** k >= 250):
            nu = hardy_quotient_min(args.alpha, build_grid(args.X, n, args.g))
            rows.append([n, nu, target, (nu - target) / target if target > 0 else nu])
        _emit(args, ["N", "hardy_min", "target", "rel_err"], rows)
        return 0
    lam = 0.0 if args.lam is None else args.lam
    require_lambda(args.alpha, lam)
    grid = build_grid(args.X, args.N, args.g)
    count = min(20, args.N - 1) if args.count is None else args.count
    rows = [[i, v] for i, v in enumerate(lowest_eigenvalues(args.alpha, lam, grid, count))]
    _emit(args, ["index", "eigenvalue"], rows)
    return 0


def cmd_verify(args) -> int:
    config = None
    if args.config:
        parser = configparser.ConfigParser()
        parser.optionxform = str  # parameter keys are case-sensitive
        with open(args.config, encoding="utf-8") as fh:
            parser.read_file(fh)
        config = {name: dict(parser[name]) for name in parser.sections()}
    reports = V.run_all(config, seed=args.seed, check=args.check)
    if args.summary is not None:
        rows = [[r.check_name, key, float(r.measured[key]), float(cap),
                 "pass" if r.measured[key] <= cap else "fail"]
                for r in reports for key, cap in r.tolerances.items()]
        with _destination(args.summary) as fh:
            write_table(fh, ["check_name", "key_measured", "measured", "cap", "verdict"],
                        rows)
    with _destination(args.out) as fh:
        dump_json([r.as_dict() for r in reports], fh)
    for r in reports:
        print(f"[{'PASS' if r.verdict else 'FAIL'}] {r.check_name}",
              file=sys.stderr)
    return 0 if all(r.verdict for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hardyops",
                                 description="Half-space Hardy operator numerics")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("exponent", help="coupling/exponent correspondence")
    pe.add_argument("--alpha", type=float, required=True)
    pe.add_argument("--lambda", dest="lam", type=float, default=None)
    pe.add_argument("--lambda-star", dest="lambda_star_flag", action="store_true",
                    default=None)
    pe.add_argument("--lambda-zero", dest="lambda_zero_flag", action="store_true",
                    default=None)
    pe.set_defaults(func=cmd_exponent)

    pk = sub.add_parser("kernel", help="tabulate kernels/envelopes")
    pk.add_argument("--kind", required=True,
                    choices=["heat-exact", "heat-envelope", "riesz-envelope",
                             "diff-envelope"])
    pk.add_argument("--alpha", type=float, default=2.0)
    pk.add_argument("--lambda", dest="lam", type=float, default=None)
    pk.add_argument("--d", type=int, default=None, help="envelope kinds (default 1)")
    pk.add_argument("--c-exp", type=float, default=None,
                    help="heat- and diff-envelope (default 0.25)")
    pk.add_argument("--t", type=str, default="1.0",
                    help="comma-separated times (or s-values for riesz-envelope)")
    pk.add_argument("--x", type=str, required=True, help="comma-separated x_d values")
    pk.add_argument("--y", type=str, required=True, help="comma-separated y_d values")
    pk.set_defaults(func=cmd_kernel)

    pd = sub.add_parser("discretize", help="spectra and Hardy-minimum tables")
    pd.add_argument("--alpha", type=float, required=True)
    pd.add_argument("--lambda", dest="lam", type=float, default=None,
                    help="spectrum coupling (default 0)")
    pd.add_argument("--N", type=int, default=1000)
    pd.add_argument("--X", type=float, default=10.0)
    pd.add_argument("--g", type=float, default=2.0)
    pd.add_argument("--hardy-min", dest="hardy_min", action="store_true",
                    help="Hardy-minimum table; the quotient is dilation-invariant, "
                         "so --X does not change it")
    pd.add_argument("--count", type=int, default=None,
                    help="spectrum rows, at most N-1 (default 20, or N-1 if fewer)")
    pd.set_defaults(func=cmd_discretize)

    pv = sub.add_parser("verify", help="run verification checks")
    pv.add_argument("--check", type=str, default="all")
    pv.add_argument("--config", type=str, default=None)
    pv.add_argument("--out", type=str, default=None, help="JSON report path")
    pv.add_argument("--summary", type=str, default=None, help="CSV summary path")
    pv.add_argument("--seed", type=int, default=0,
                    help="sample-point seed of difference_bound and lemma_integral")
    pv.set_defaults(func=cmd_verify)

    for p in (pe, pk, pd):
        p.add_argument("--format", choices=["csv", "json", "plain"], default="plain")
        p.add_argument("--out", type=str, default=None)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        # checked before any work: verify writes only after its whole campaign
        for flag in ("--out", "--summary"):
            if getattr(args, flag[2:], None) == "":
                raise DomainError(f"{flag} needs a file path, got an empty one")
        return args.func(args)
    except DomainError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
