"""Command-line interface: pressure sweeps, spectrum curves, constants, verify.

Output is CSV (``# key=value`` metadata comments, then a header row, then
data) or JSON (one object with ``metadata`` and ``rows``).  Floats are
written with shortest round-trip representation, so identical arguments
produce byte-identical files.  Each subcommand accepts only the options that
change its output.

Exit codes: 0 success, 1 verification failure, 2 domain or usage error,
3 a spectrum sweep solved fewer than 90% of its points.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .acceptance import CRITERIA, VerifyConfig, run_criterion
from .spectra import (WindowError, _central_derivatives, bounded_digit_dimension,
                      khintchine_curve, lyapunov_curve, spectrum_shape_report,
                      InsufficientGridError)
from .transfer import (Alphabet, ConvergenceError, Discretization, DomainError,
                       PressureProvider)
from .zeta import (golden_constant, khintchine_constant, khintchine_exponent,
                   lyapunov_constant)


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gauss-spectra",
        description="Pressure and dimension spectra of the Gauss "
                    "continued-fraction system")
    sub = p.add_subparsers(dest="command", required=True)
    pp = sub.add_parser("pressure",
                        help="pressure and its derivatives at points or sweeps")
    ps = sub.add_parser("spectrum", help="solve a dimension spectrum on a grid")
    ps.add_argument("kind", choices=("khintchine", "lyapunov"))
    pc = sub.add_parser("constants", help="table of the constants of the Gauss map")
    pv = sub.add_parser("verify", help="run the acceptance criteria")

    for sp in (pp, ps, pv):
        sp.add_argument("--cutoff", type=int, default=64,
                        help="digit cutoff M of the full alphabet (default 64)")
    for sp in (pp, ps, pc, pv):
        sp.add_argument("--collocation-order", type=int, default=16, dest="order",
                        help="number of Chebyshev nodes K (default 16)")
    for sp in (pp, ps, pc):
        sp.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="out_format", help="output format")
        sp.add_argument("--output", default=None, help="output file (default stdout)")
    for sp in (pp, ps):
        sp.add_argument("--gnuplot", action="store_true",
                        help="also write a gnuplot script next to --output")
        sp.add_argument("--min", type=_finite_float, default=None)
        sp.add_argument("--max", type=_finite_float, default=None)
        sp.add_argument("--count", type=int, default=None)
        sp.add_argument("--spacing", choices=("linear", "log"), default="linear")

    pp.add_argument("--t", type=_finite_float, default=None)
    pp.add_argument("--q", type=_finite_float, default=None)
    pv.add_argument("--seed", type=int, default=0,
                    help="seed of the randomized criteria c14 and c15 (default 0)")
    pv.add_argument("--list", action="store_true", dest="list_only",
                    help="enumerate the criteria without running them")
    return p


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _validate_common(args) -> str | None:
    if "cutoff" in args and args.cutoff < 8:
        return f"--cutoff must be >= 8, got {args.cutoff}"
    if args.order < 4:
        return f"--collocation-order must be >= 4, got {args.order}"
    if "gnuplot" in args and args.gnuplot and not args.output:
        return "--gnuplot requires --output"
    return None


def _make_grid(args) -> np.ndarray | None:
    given = [args.min is not None, args.max is not None, args.count is not None]
    if not any(given):
        return None
    if not all(given):
        raise ValueError("--min, --max and --count must be given together")
    if args.count < 2:
        raise ValueError(f"--count must be >= 2, got {args.count}")
    if not args.max > args.min:
        raise ValueError("--max must exceed --min")
    if args.spacing == "log":
        if args.min <= 0:
            raise ValueError("log spacing needs --min > 0")
        return np.geomspace(args.min, args.max, args.count)
    return np.linspace(args.min, args.max, args.count)


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write(metadata: dict, header: list[str], rows: list[list], args,
           trailer: dict | None = None) -> None:
    if args.out_format == "json":
        payload = {"metadata": metadata, "rows": [dict(zip(header, r)) for r in rows]}
        if trailer:
            payload["metadata"] = {**metadata, **trailer}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"# {k}={_fmt(v)}" for k, v in metadata.items()]
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(v) for v in r) for r in rows)
        if trailer:
            lines.extend(f"# {k}={_fmt(v)}" for k, v in trailer.items())
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_gnuplot(args, xlabel: str, ylabel: str, xcol: int, ycol: int) -> None:
    if not args.gnuplot:
        return
    script = args.output + ".gp"
    with open(script, "w") as fh:
        fh.write(
            "set datafile separator \",\"\n"
            f"set xlabel \"{xlabel}\"\n"
            f"set ylabel \"{ylabel}\"\n"
            f"plot \"{args.output}\" using {xcol}:{ycol} with linespoints notitle\n"
        )


def _metadata(args, extra: dict) -> dict:
    meta = {"tool": "gauss-spectra", "version": __version__, "command": args.command}
    if "cutoff" in args:
        meta["cutoff"] = args.cutoff
    meta["collocation_order"] = args.order
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------

def cmd_pressure(args) -> int:
    if (args.t is not None and args.q is not None
            and (args.min, args.max, args.count) != (None, None, None)):
        return _usage_error("--t with --q is one point; sweep only one of them "
                            "with --min/--max/--count")
    try:
        grid = _make_grid(args)
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.t is not None and args.q is not None:
        points = [(args.t, args.q)]
    elif args.t is not None and grid is not None:
        points = [(args.t, float(q)) for q in grid]
    elif args.q is not None and grid is not None:
        points = [(float(t), args.q) for t in grid]
    else:
        return _usage_error(
            "pressure needs --t and --q, or one of them plus --min/--max/--count")

    prov = PressureProvider(Alphabet.full(args.cutoff), Discretization.chebyshev(args.order))
    rows = []
    for (t, q) in points:
        res = prov.result(t, q)
        rows.append([t, q, res.value, res.dP_dt, res.dP_dq, res.tail_error_bound])

    meta = _metadata(args, {"points": len(points)})
    header = ["t", "q", "pressure", "dP_dt", "dP_dq", "tail_error"]
    _write(meta, header, rows, args)
    _write_gnuplot(args, "q" if args.t is not None and grid is not None else "t",
                   "pressure", 2 if args.t is not None and grid is not None else 1, 3)
    return 0


def cmd_spectrum(args) -> int:
    try:
        grid = _make_grid(args)
    except ValueError as exc:
        return _usage_error(str(exc))
    if grid is None:
        return _usage_error("spectrum needs --min, --max and --count")

    provider = PressureProvider(Alphabet.full(args.cutoff),
                                Discretization.chebyshev(args.order))
    try:
        if args.kind == "khintchine":
            curve = khintchine_curve(grid, provider)
            center = khintchine_exponent()
        else:
            curve = lyapunov_curve(grid, provider)
            center = lyapunov_constant()
    except WindowError as exc:
        return _usage_error(str(exc))

    # slopes at interior solved points from their solved neighbours
    slopes = np.full(len(curve.points), math.nan)
    if len(curve.points) >= 3:
        slopes[1:-1] = _central_derivatives(curve.exponents, curve.dimensions)
    solved = {p.exponent: (p, s) for p, s in zip(curve.points, slopes)}
    rows = []
    for g in grid:
        g = float(g)
        if g not in solved:
            rows.append([g, math.nan, math.nan, math.inf, math.inf, math.nan])
            continue
        pt, slope = solved[g]
        rows.append([g, pt.dimension, pt.q_value, *pt.residuals, float(slope)])

    trailer = {}
    try:
        rep = spectrum_shape_report(curve, peak_reference=center)
        trailer = {
            "shape_peak_exponent": rep.peak_exponent,
            "shape_peak_dimension": rep.peak_dimension,
            "shape_slope_sign_changes": rep.slope_sign_changes,
            "shape_curvature_at_peak": rep.curvature_at_peak,
            "shape_convexity_witness": (
                rep.convexity_witness[0] if rep.convexity_witness else math.nan),
            "shape_q_sign_consistent": rep.q_sign_consistent,
        }
    except InsufficientGridError:
        pass

    meta = _metadata(args, {
        "kind": args.kind,
        "grid_min": float(grid[0]), "grid_max": float(grid[-1]),
        "grid_count": len(grid), "grid_spacing": args.spacing,
        "solved": len(curve.points), "failed": len(curve.metadata["failures"]),
        "solves": curve.metadata["solves"],
    })
    header = ["exponent", "dimension", "q_value", "residual_1", "residual_2",
              "slope_fd"]
    _write(meta, header, rows, args, trailer=trailer)
    _write_gnuplot(args, "exponent", "dimension", 1, 2)
    return 0 if len(curve.points) >= 0.9 * len(grid) else 3


def cmd_constants(args) -> int:
    disc = Discretization.chebyshev(args.order)
    rows = [
        ["khintchine_constant", khintchine_constant(),
         "exp of the mean log-digit series"],
        ["khintchine_exponent", khintchine_exponent(),
         "Bailey-Borwein-Crandall zeta series (spectrum peak abscissa)"],
        ["lyapunov_constant", lyapunov_constant(), "pi^2 / (6 log 2)"],
        ["golden_constant", golden_constant(), "2 log((1 + sqrt 5)/2)"],
        ["dim_E2", bounded_digit_dimension({1, 2}, disc),
         "zero of the {1,2}-restricted pressure"],
    ]
    meta = _metadata(args, {})
    _write(meta, ["name", "value", "method"], rows, args)
    return 0


def cmd_verify(args) -> int:
    if args.list_only:
        for cid, title, _ in CRITERIA:
            print(f"{cid}  {title}")
        return 0
    cfg = VerifyConfig(cutoff=args.cutoff, order=args.order, seed=args.seed)
    all_ok = True
    for cid, _, _ in CRITERIA:
        r = run_criterion(cid, cfg)
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"{status} {r.cid} {r.title}")
        print(f"     measured:  {r.measured}")
        print(f"     expected:  {r.expected}   tolerance: {r.tolerance}   "
              f"runtime: {r.runtime:.2f}s (budget {r.budget:.0f}s)")
    print("result:", "all criteria passed" if all_ok else "FAILURES present")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    msg = _validate_common(args)
    if msg:
        return _usage_error(msg)
    try:
        if args.command == "pressure":
            return cmd_pressure(args)
        if args.command == "spectrum":
            return cmd_spectrum(args)
        if args.command == "constants":
            return cmd_constants(args)
        if args.command == "verify":
            return cmd_verify(args)
    except (DomainError, ConvergenceError) as exc:
        return _usage_error(str(exc))
    raise AssertionError("unreachable")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
