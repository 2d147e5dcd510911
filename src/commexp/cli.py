"""Command-line front end: catalog inspection, verification, benchmarks.

Every scheme argument is resolved by :func:`commexp.schemes.resolve`: a
catalog name, else a scheme file path.  Each ``bench`` mode reads only the
options :data:`_BENCH_READS` lists for it; any other option given is an
input error.

Exit codes: 0 on success, 1 when a verification falls short of the claimed
order, 2 for usage and input errors (unknown names, malformed flags, a
scheme whose log cannot be formed at the needed degree or whose product
overflows, a path that cannot be read or written, an optimum at the edge of
the searched range), and
:data:`EXIT_INTERNAL` (3) when the package itself fails: any other exception
is reported with its traceback and never exits 1, which scripts read as "NOT
verified".  A closed stdout is no error: the command keeps the code it had
reached, 0 before it reached one.  All output is deterministic for fixed
flags and seed.  The ``COMMEXP_OUT_DIR`` environment variable supplies a
default directory for CSV exports when ``--out`` names no path.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import traceback
from pathlib import Path

from . import schemes
from .conditions import effective_error, optimize_free_parameter, order_residuals

OUT_DIR_ENV = "COMMEXP_OUT_DIR"

#: Exit code for an unexpected exception (a fault in the package, not the input).
EXIT_INTERNAL = 3

#: The presets of ``bench --figure``, the keys of :data:`commexp.bench.FIGURES`:
#: named here so that the parser does not import the dense layer.
FIGURE_NAMES = ("fig1", "fig2", "fig3", "fig5", "fig6")

#: The options each ``bench`` mode reads: one given that its mode does not
#: read is an input error, refused before any pair is built.
_BENCH_READS = {
    "--figure": ("seed", "out"),
    "--custom --n": ("schemes", "pair", "seed", "t", "n", "out"),
    "--custom --x": ("schemes", "pair", "seed", "x", "tol", "out"),
}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _coeff_str(value) -> str:
    c = complex(value)
    if c.imag != 0.0:
        return f"{c.real:.17g}{c.imag:+.17g}j"
    return f"{c.real:.17g}"


def _default_out(filename: str) -> Path:
    base = os.environ.get(OUT_DIR_ENV, "")
    return Path(base) / filename if base else Path(filename)


# --------------------------------------------------------------------------
# schemes
# --------------------------------------------------------------------------


def _cmd_schemes(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name in schemes.catalog_names():
            sch = schemes.catalog_get(name)
            ee = effective_error(sch)
            print(f"{name:<18} order={sch.order}  s={sch.slot_count:<3d} "
                  f"target={sch.target.name:<26} E/s≈{ee.per_exponential:.3f}")
        return 0

    try:
        sch = schemes.resolve(args.name)
    except (KeyError, ValueError) as exc:
        return _fail(str(exc.args[0] if exc.args else exc))

    if args.action == "show":
        print(f"{sch.name}: order {sch.order}, {sch.slot_count} exponentials, "
              f"family {sch.family}")
        print(f"target {sch.target.name}: "
              + ", ".join(f"w({d},{p})={_coeff_str(v)}"
                          for (d, p), v in sorted(sch.target.terms.items(),
                                                  key=lambda kv: kv[0])))
        if sch.note:
            print(f"note: {sch.note}")
        for i, slot in enumerate(sch.slots):
            print(f"  slot {i:2d}: {slot.generator}  {_coeff_str(slot.coefficient)}")
        return 0

    schemes.save_scheme(sch, args.path)
    print(f"wrote {args.path}")
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    if not _positive_finite(args.tol):
        return _fail(f"--tol needs a positive finite tolerance, got {args.tol:g}")
    try:
        sch = schemes.resolve(args.scheme)
    except (KeyError, ValueError) as exc:
        return _fail(str(exc.args[0] if exc.args else exc))

    r = sch.order
    try:
        report = order_residuals(sch, sch.target, r, args.tol)
    except ValueError as exc:
        return _fail(f"cannot verify {sch.name}: {exc}")
    for degree in range(1, r + 1):
        print(f"degree {degree}: max residual {report.max_residual(degree):.3e}")

    if not report.all_satisfied():
        first = report.verified_order + 1
        print(f"{sch.name}: order {r} NOT verified, first failure at degree "
              f"{first} (max residual {report.max_residual(first):.3e}, "
              f"tol {report.tolerance:g})")
        return 1

    ee = report.effective_error
    print(f"{sch.name}: order {r} verified, E = {ee.E:.6g}, "
          f"E/s = {ee.per_exponential:.6g}")
    return 0


# --------------------------------------------------------------------------
# bench
# --------------------------------------------------------------------------


def _parse_pair(spec: str, seed: int):
    from . import matform

    if spec == "pauli":
        return matform.make_pair("pauli")
    kind, _, dim = spec.partition(":")
    if kind == "random" and dim.isdigit():
        try:
            return matform.make_pair("random", int(dim), seed)
        except (ValueError, MemoryError) as exc:  # a size below 2, or too large to hold
            raise ValueError(f"--pair {spec}: {exc}") from None
    raise ValueError(f"--pair wants pauli or random:<dim>, got {spec!r}")


def _split_numbers(text: str, kind=float) -> list:
    return [kind(tok) for tok in text.split(",") if tok.strip()]


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from . import bench

    if args.custom and args.n is None and args.x is None:
        return _fail("--custom needs exactly one of --n or --x")
    mode = "--figure" if args.figure else "--custom --n" if args.n is not None else "--custom --x"
    reads = _BENCH_READS[mode]
    unread = [f"--{opt}" for opt in dict.fromkeys(sum(_BENCH_READS.values(), ()))
              if opt not in reads and getattr(args, opt) is not None]
    if unread:
        *head, last = (f"--{opt}" for opt in reads)
        return _fail(f"{mode} takes only {', '.join(head)} and {last}, not {', '.join(unread)}")

    if args.figure:
        out = Path(args.out) if args.out else _default_out(f"{args.figure}.csv")
        n_rows = bench.export_figure(args.figure, out, seed=args.seed)
        print(f"{args.figure}: wrote {out} ({n_rows} lines incl. headers)")
        return 0

    names = [tok.strip() for tok in (args.schemes or "").split(",") if tok.strip()]
    if not names:
        return _fail("--custom needs --schemes")
    try:
        scheme_list = [schemes.resolve(name) for name in names]
        pair = _parse_pair("pauli" if args.pair is None else args.pair, args.seed)
    except (KeyError, ValueError) as exc:
        return _fail(str(exc.args[0] if exc.args else exc))

    out = Path(args.out) if args.out else _default_out("custom.csv")
    if args.n is not None:
        t_total = 1.0 if args.t is None else args.t
        try:
            n_list = _split_numbers(args.n, int)
        except ValueError:
            return _fail(f"--n needs comma-separated integers, got {args.n!r}")
        if not n_list or min(n_list) < 1:
            return _fail("--n needs positive step counts")
        if not _positive_finite(t_total):
            return _fail(f"--t needs a positive finite total time, got {t_total:g}")
        try:
            header, rows = bench.curve_table(scheme_list, [pair], t_total, n_list)
        except ValueError as exc:  # the product or its error is not finite or not bounded
            return _fail(f"cannot evaluate the error curve at t = {t_total:g}: {exc}")
        comments = [f"custom error curve: t_total={t_total:g}, seed={args.seed}"]
    else:
        try:
            x_grid = _split_numbers(args.x)
        except ValueError:
            return _fail(f"--x needs comma-separated numbers, got {args.x!r}")
        if not x_grid or args.tol is None:
            return _fail("--x needs a nonempty grid and --tol")
        if not all(0 < x <= 1 for x in x_grid):
            return _fail(f"--x values must lie in (0, 1], got {args.x!r}")
        if not _positive_finite(args.tol):
            return _fail(f"--tol needs a positive finite tolerance, got {args.tol:g}")
        try:
            header, rows, search = bench._cost_table(scheme_list, pair, x_grid, args.tol)
        except ValueError as exc:  # the product or its error is not finite or not bounded
            return _fail(f"cannot evaluate the cost table at tol = {args.tol:g}: {exc}")
        comments = [f"custom cost table: tol={args.tol:g}, seed={args.seed}", search]

    bench._write_csv(out, [(comments + bench.provenance([pair], scheme_list), header, rows)])
    print(f"custom: wrote {out} ({len(rows)} data rows)")
    return 0


# --------------------------------------------------------------------------
# optimize
# --------------------------------------------------------------------------

# (row family, order, parameter label, closed-form minimizer, sign symmetric)
_FAMILIES = {
    "third_order": (schemes.third_order_rows, 3, "c5",
                    math.sqrt(2.0 / (math.sqrt(5.0) + 1.0)), True),
    "aor4": (schemes.aor4_rows, 4, "d2", schemes.AOR4_OPTIMAL_D2, False),
}


def _cmd_optimize(args: argparse.Namespace) -> int:
    family, r, label, reference, symmetric = _FAMILIES[args.family]
    parts = args.range.split(":")
    try:
        lo, hi = (float(tok) for tok in parts)
    except ValueError:
        return _fail(f"--range wants a:b with numeric bounds, got {args.range!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return _fail(f"--range needs finite bounds, got {args.range!r}")
    if not lo < hi:
        return _fail(f"--range {args.range!r} is an empty parameter range")

    try:
        result = optimize_free_parameter(family, r, (lo, hi))
    except ValueError as exc:
        return _fail(str(exc))

    if result.at_edge:
        edge = lo if abs(result.param - lo) <= abs(result.param - hi) else hi
        return _fail(f"the minimum of E lies at the range edge {label} = {edge:g}; "
                     f"widen --range {args.range} past it")
    if symmetric and result.param < 0:
        reference = -reference
    print(f"{args.family}: minimizer {label} = {result.param:.10f}, "
          f"E = {result.E:.8g}")
    print(f"closed-form reference {label}* = {reference:.10f}, "
          f"deviation {abs(result.param - reference):.3e}")
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once and shared (``parse_args`` leaves it
    unchanged); callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="commexp",
        description="Product-formula approximations of commutator exponentials.",
        epilog=f"Set {OUT_DIR_ENV} to choose a default directory for CSV exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_schemes = sub.add_parser("schemes", help="inspect the scheme catalog")
    s_sub = p_schemes.add_subparsers(dest="action", required=True)
    s_sub.add_parser("list", help="one summary line per catalog scheme")
    p_show = s_sub.add_parser("show", help="print slots at full precision")
    p_show.add_argument("name", help="catalog name or scheme file path")
    p_export = s_sub.add_parser("export", help="write a scheme file")
    p_export.add_argument("name", help="catalog name or scheme file path")
    p_export.add_argument("path")
    p_schemes.set_defaults(func=_cmd_schemes)

    p_verify = sub.add_parser("verify", help="check a scheme against its target")
    p_verify.add_argument("--scheme", required=True,
                          help="catalog name or scheme file path")
    p_verify.add_argument("--tol", type=float, default=1e-10)
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="run an experiment, write CSV")
    mode = p_bench.add_mutually_exclusive_group(required=True)
    mode.add_argument("--figure", choices=FIGURE_NAMES)
    mode.add_argument("--custom", action="store_true")
    p_bench.add_argument("--schemes", help="comma-separated catalog names or scheme file paths")
    p_bench.add_argument("--pair", help="pauli or random:<dim>")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--t", type=float, help="total simulated time")
    p_bench.add_argument("--n", help="comma-separated step counts (error curve)")
    p_bench.add_argument("--x", help="comma-separated x grid (cost table)")
    p_bench.add_argument("--tol", type=float, help="tolerance for the cost table")
    p_bench.add_argument("--out", help="output CSV path")
    p_bench.set_defaults(func=_cmd_bench)

    p_opt = sub.add_parser("optimize", help="minimize E over a free parameter")
    p_opt.add_argument("--family", required=True, choices=sorted(_FAMILIES))
    p_opt.add_argument("--range", required=True, help="parameter range a:b")
    p_opt.set_defaults(func=_cmd_optimize)

    return parser


def _join_range_values(argv: list[str]) -> list[str]:
    """Glue ``--range``'s value on with '=' so negative bounds survive argparse."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--range" and i + 1 < len(argv):
            out.append(f"--range={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_join_range_values(list(argv)))
    except SystemExit as exc:  # argparse exits itself on usage errors / --help
        return int(exc.code or 0)
    code = 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout, which is no input error: what is left to
        # print goes to the null device, and the command keeps its code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return code
    except OSError as exc:  # a path named on the command line
        where = f"{exc.filename}: " if exc.filename else ""
        return _fail(f"{where}{exc.strerror or exc}")
    except Exception as exc:  # anything else is a fault in the package
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
