"""Experiment runners: error-vs-cost curves, tolerance searches, CSV export.

The conventions follow the accuracy experiments these schemes were designed
for: a composition of order r for a degree-k homogeneous target is stepped
n times at t_step = (t_total/n)^(1/k), so the steps compose exactly to the
target at t_total and the measured error decays like n^(-(r-k+1)/k)... in
the commutator case (k = 2), n^(-(r-1)/2).  All exports are deterministic:
given the same seed and flags the CSV bytes are identical run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import matform, schemes

__all__ = [
    "BenchResult",
    "error_curve",
    "gates_for_tolerance",
    "slope_fit",
    "single_step_errors",
    "export_figure",
    "provenance",
    "FIGURES",
    "DEFAULT_N_GRID",
    "DEFAULT_N_CAP",
]

DEFAULT_N_GRID = tuple(2 ** k for k in range(13))
DEFAULT_N_CAP = 10 ** 6
_SLOPE_WINDOW = (1e-14, 1e-1)


@dataclass(frozen=True)
class BenchResult:
    """One cell of an error-vs-cost experiment."""

    scheme: str
    n: int
    gates: int
    t_total: float
    error: float
    pair: str
    seed: int | None = None

    def __post_init__(self):
        if self.error < 0:
            raise ValueError("error must be nonnegative")


def _resolve_scheme(scheme):
    if isinstance(scheme, str):
        return schemes.catalog_get(scheme)
    return scheme


def _step_time(t_total: float, n: int, k: int) -> float:
    return (t_total / n) ** (1.0 / k)


def error_curve(scheme, pair: matform.OperatorPair, t_total: float,
                n_list: Sequence[int] = DEFAULT_N_GRID) -> list[BenchResult]:
    """Error of the n-fold composition against the target at t_total.

    The per-step time is (t_total/n)^(1/k) with k the leading degree of the
    target, so the n steps compose to the target exactly; the reported cost
    is n times the slot count.
    """
    scheme = _resolve_scheme(scheme)
    k = scheme.target.min_degree
    with np.errstate(over="ignore", invalid="ignore"):  # _error_at's two_norm checks T
        T = matform.target_matrix(scheme.target, pair, t_total ** (1.0 / k))
    out = []
    for n in n_list:
        if n < 1:
            raise ValueError("step counts must be positive")
        out.append(BenchResult(scheme.name, n, n * scheme.slot_count, t_total,
                               _error_at(scheme, pair, t_total, k, T, n),
                               pair.label, pair.seed))
    return out


def _error_at(scheme, pair, t_total: float, k: int, T: np.ndarray, n: int) -> float:
    # an overflowing product turns up as two_norm's non-finite ValueError
    with np.errstate(over="ignore", invalid="ignore"):
        U = matform.evaluate_scheme(scheme, pair, _step_time(t_total, n, k))
        return matform.two_norm(np.linalg.matrix_power(U, n) - T)


def gates_for_tolerance(scheme, pair: matform.OperatorPair,
                        x_grid: Sequence[float], tol: float,
                        n_cap: int = DEFAULT_N_CAP) -> list[tuple[float, int | None]]:
    """Smallest gate count reaching ``tol`` for each commutator strength x.

    For each x the target is the commutator exponential at t_total = x^2
    (per-step time x/sqrt(n)).  A doubling search brackets the first step
    count whose error drops to ``tol``; bisection then isolates the smallest
    such n, reported as n times the slot count.  ``None`` marks grid points
    where ``n_cap`` steps still miss the tolerance.
    """
    scheme = _resolve_scheme(scheme)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    k = scheme.target.min_degree
    out: list[tuple[float, int | None]] = []
    for x in x_grid:
        if not 0 < x <= 1:
            raise ValueError("x grid must lie in (0, 1]")
        t_total = x ** k
        T = matform.target_matrix(scheme.target, pair, x)

        def err(n: int) -> float:
            return _error_at(scheme, pair, t_total, k, T, n)

        n = 1
        while n <= n_cap and err(n) > tol:
            n *= 2
        if n > n_cap:
            out.append((x, None))
            continue
        lo, hi = n // 2, n          # err(lo) > tol (or lo = 0), err(hi) <= tol
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if err(mid) <= tol:
                hi = mid
            else:
                lo = mid
        out.append((x, hi * scheme.slot_count))
    return out


def slope_fit(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares log-log slope over the trustworthy error window."""
    usable = [(t, e) for t, e in points if _SLOPE_WINDOW[0] <= e <= _SLOPE_WINDOW[1]]
    if len(usable) < 3:
        raise ValueError(f"need at least 3 points inside {_SLOPE_WINDOW}, "
                         f"got {len(usable)}")
    logs = np.log([t for t, _ in usable])
    loge = np.log([e for _, e in usable])
    slope, _ = np.polyfit(logs, loge, 1)
    return float(slope)


def single_step_errors(scheme, pair: matform.OperatorPair,
                       t_grid: Sequence[float]) -> list[tuple[float, float]]:
    """(t, error) of one application of the scheme against its own target."""
    scheme = _resolve_scheme(scheme)
    out = []
    for t in t_grid:
        # as in _error_at, overflow surfaces as two_norm's ValueError
        with np.errstate(over="ignore", invalid="ignore"):
            U = matform.evaluate_scheme(scheme, pair, t)
            T = matform.target_matrix(scheme.target, pair, t)
            out.append((float(t), matform.two_norm(U - T)))
    return out


# --------------------------------------------------------------------------
# figure presets
# --------------------------------------------------------------------------

_TABLE3 = ("NCP6_3", "NCP10_4", "PCP16_5", "PCP26_6")
_FIG1_SCHEMES = _TABLE3 + ("S2_chen", "S3_chen")
_FIG2_SCHEMES = ("NCP10_4", "PCP12_4", "PCP16_5", "NCP18_5")
_FIG5_SCHEMES = _TABLE3 + ("PCP12_4", "NCP18_5")
_FIG6_SCHEMES = ("yoshida4", "suzuki4", "zass_sym22")

_FIG5_X_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
_FIG5_TOLS = (1e-4, 1e-7)
_FIG6_T_GRID = tuple(float(t) for t in np.exp2(np.linspace(-7.0, -3.0, 13)))
_FIG6_N_GRID = tuple(2 ** k for k in range(11))

_OMISSION_NOTE = ("recursive reference schemes G5 (56 exponentials) and G6 "
                  "(98 exponentials) omitted: their generating recursion is "
                  "external to this package")


def _fmt(value) -> str:
    if value is None:
        return "not reached"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(out, sections: Sequence[tuple[Sequence[str], Sequence[str], Sequence]]
               ) -> None:
    """Write ``(comments, header, rows)`` sections, creating the parent directory.

    Each section is its ``# `` comment lines, the header and one line per row;
    floats print at 17 significant digits and ``None`` as "not reached".
    """
    lines = []
    for comments, header, rows in sections:
        lines.extend(f"# {c}" for c in comments)
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def curve_table(scheme_names, pairs, t_total, n_grid):
    """CSV header and rows of n-step error curves, pair by pair, scheme by scheme."""
    rows = []
    for pair in pairs:
        for name in scheme_names:
            for res in error_curve(name, pair, t_total, n_grid):
                rows.append((res.scheme, res.pair, res.t_total,
                             res.n, res.gates, res.error))
    return ("scheme", "pair", "t_total", "n", "gates", "error"), rows


def cost_table(scheme_names, pair, x_grid, tol):
    """CSV header and rows of the gates each scheme needs to reach ``tol`` per x."""
    rows = [(name, x, tol, gates) for name in scheme_names
            for x, gates in gates_for_tolerance(name, pair, x_grid, tol)]
    return ("scheme", "x", "tol", "gates"), rows


def provenance(pairs, scheme_names) -> list[str]:
    """CSV comment lines: per pair, how the schemes were multiplied out
    (:func:`~commexp.matform.evaluation_path`), then the numpy version.

    A pair whose schemes do not all share one path and arithmetic names the
    schemes of each minority kind, e.g.
    ``random:16: taylor path, float64 arithmetic; taylor path, complex128
    arithmetic for PCP6_3_imaginary``.
    """
    lines = []
    for pair in pairs:
        kinds: dict[tuple[str, str], list[str]] = {}
        for name in scheme_names:
            path = matform.evaluation_path(_resolve_scheme(name), pair)
            kinds.setdefault(path, []).append(name)
        (path, arithmetic), *others = sorted(kinds, key=lambda k: -len(kinds[k]))
        lines.append(f"{pair.label}: {path} path, {arithmetic} arithmetic" + "".join(
            f"; {p} path, {a} arithmetic for {' '.join(kinds[p, a])}" for p, a in others))
    return lines + [f"numpy {np.__version__}"]


def _export_curve_figure(which, out, scheme_names, t_total, seed):
    pairs = [matform.make_pair("pauli"), matform.make_pair("random", 16, seed)]
    header, rows = curve_table(scheme_names, pairs, t_total, DEFAULT_N_GRID)
    comments = [
        f"{which}: n-step composition error vs gate count, t_total={t_total:g}",
        f"pairs: pauli and random:16 (seed={seed}); n = 1..{DEFAULT_N_GRID[-1]}",
        *provenance(pairs, scheme_names),
    ]
    _write_csv(out, [(comments, header, rows)])


def _export_fig5(out, seed):
    pair = matform.make_pair("pauli")
    rows = []
    for tol in _FIG5_TOLS:
        header, tol_rows = cost_table(_FIG5_SCHEMES, pair, _FIG5_X_GRID, tol)
        rows += tol_rows
    comments = [
        "fig5: gates needed to reach tolerance for exp(x^2 [A,B]) on the pauli pair",
        f"x grid {_FIG5_X_GRID[0]}..{_FIG5_X_GRID[-1]}, tolerances "
        + " and ".join(f"{t:g}" for t in _FIG5_TOLS)
        + f", step cap {DEFAULT_N_CAP}",
        _OMISSION_NOTE,
        *provenance([pair], _FIG5_SCHEMES),
    ]
    _write_csv(out, [(comments, header, rows)])


def _export_fig6(out, seed):
    pair = matform.make_pair("pauli")
    steps = [(name, t, err) for name in _FIG6_SCHEMES
             for t, err in single_step_errors(name, pair, _FIG6_T_GRID)]
    costs = [(name, res.gates, res.error) for name in _FIG6_SCHEMES
             for res in error_curve(name, pair, 1.0, _FIG6_N_GRID)]
    _write_csv(out, [
        (["fig6: sum-splitting comparison on the pauli pair",
          "single-step error of one application vs step size t",
          *provenance([pair], _FIG6_SCHEMES)],
         ("method", "t", "error"), steps),
        (["cost table: n-step composition error vs gate count at t_total=1"],
         ("method", "gates", "error"), costs),
    ])


FIGURES: dict[str, Callable[[str, int], None]] = {
    "fig1": lambda out, seed: _export_curve_figure("fig1", out, _FIG1_SCHEMES, 1.0, seed),
    "fig2": lambda out, seed: _export_curve_figure("fig2", out, _FIG2_SCHEMES, 1.0, seed),
    "fig3": lambda out, seed: _export_curve_figure("fig3", out, _FIG1_SCHEMES, 10.0, seed),
    "fig5": _export_fig5,
    "fig6": _export_fig6,
}


def export_figure(which: str, out, seed: int = 0) -> None:
    """Write one of the named experiment protocols as CSV."""
    try:
        runner = FIGURES[which]
    except KeyError:
        raise ValueError(f"unknown figure {which!r}; choose from {sorted(FIGURES)}") from None
    runner(str(out), seed)
