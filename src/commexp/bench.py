"""Experiment runners: error-vs-cost curves, tolerance searches, CSV export.

The conventions follow the accuracy experiments these schemes were designed
for: a composition of order r for a degree-k homogeneous target is stepped
n times at t_step = (t_total/n)^(1/k), so the steps compose exactly to the
target at t_total and the measured error decays like n^(-(r-k+1)/k): in
the commutator case (k = 2), n^(-(r-1)/2).  All exports are deterministic:
given the same seed and flags the CSV bytes are identical run to run.

Cost tables (:func:`gates_for_tolerance`) use that decay to guide their
search: each probe predicts where the error crosses the tolerance, and a
reported count n carries the evaluated bracket err(n) <= tol < err(n - 1).
``None`` ("not reached") means the largest power of two <= the step cap
still misses the tolerance.

A table (:func:`curve_table`, :func:`cost_table`) is the unit of stacking:
it builds each distinct target once, makes one
:func:`~commexp.matform.evaluate_scheme` call per scheme (per round, for a
cost table), and raises and norms the entries of all its schemes in one
pass.  :func:`error_curve`, :func:`gates_for_tolerance` and
:func:`single_step_errors` are its one-scheme case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__, matform, schemes

__all__ = [
    "BenchResult",
    "error_curve",
    "gates_for_tolerance",
    "slope_fit",
    "single_step_errors",
    "empirical_order",
    "curve_table",
    "cost_table",
    "export_figure",
    "provenance",
    "FIGURES",
    "DEFAULT_N_GRID",
    "DEFAULT_N_CAP",
]

DEFAULT_N_GRID = tuple(2 ** k for k in range(13))
DEFAULT_N_CAP = 10 ** 6
_SLOPE_WINDOW = (1e-14, 1e-1)
_SINGLE_STEP_T_GRID = tuple(np.exp2(np.linspace(-7.0, -3.0, 9)))


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
    is n times the slot count.  A ``t_total`` that is not positive and
    finite, or a step count that is not an integer >= 1, raises
    ``ValueError``.  This is the one-scheme :func:`curve_table`: the n grid
    is one (len(n_list), d, d) stack (:func:`~commexp.matform.evaluate_scheme`),
    split only past ``_STACK_BYTES`` per buffer.
    """
    return _curves([scheme], pair, t_total, n_list)[0]


def _curves(scheme_list, pair: matform.OperatorPair, t_total: float,
            n_list: Sequence[int]) -> list[list[BenchResult]]:
    """:func:`error_curve` of each scheme, as one table: one target per
    distinct target and one :func:`_errors` pass over all the curves."""
    resolved = [_resolve_scheme(s) for s in scheme_list]
    if not (math.isfinite(t_total) and t_total > 0):
        raise ValueError(f"t_total must be positive and finite, got {t_total!r}")
    for n in n_list:  # numpy integers are fine; 2.5 would be powered as 2
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"step counts must be integers >= 1, got {n!r}")
    targets = _targets(resolved, pair, lambda target: t_total ** (1.0 / target.min_degree))
    jobs = []
    for scheme, T in zip(resolved, targets):
        k = scheme.target.min_degree
        jobs.append(_Job(scheme, [_step_time(t_total, n, k) for n in n_list], n_list,
                         np.broadcast_to(T, (len(n_list),) + T.shape)))
    return [[BenchResult(scheme.name, n, n * scheme.slot_count, t_total, error,
                         pair.label, pair.seed)
             for n, error in zip(n_list, errors)]
            for scheme, errors in zip(resolved, _errors(pair, jobs))]


def _targets(resolved, pair: matform.OperatorPair, times: Callable) -> list[np.ndarray]:
    """Per scheme, its target at the step time (or 1-D grid) ``times(target)``:
    one :func:`~commexp.matform.target_matrix` call per distinct target of
    the schemes (targets compare by value)."""
    built: list[tuple] = []
    out = []
    for scheme in resolved:
        T = next((T for target, T in built if target == scheme.target), None)
        if T is None:
            T = matform.target_matrix(scheme.target, pair, times(scheme.target))
            built.append((scheme.target, T))
        out.append(T)
    return out


#: Bytes one complex128 (k, d, d) buffer of a stacked pass may reach (16 MiB):
#: a longer table runs as several stacks, so memory does not grow with it.
_STACK_BYTES = 1 << 24


class _Job(NamedTuple):
    """One scheme's entries in an :func:`_errors` pass: step times, step
    counts and the (len(steps), d, d) targets, a broadcast view where the
    entries share one."""

    scheme: object
    steps: Sequence[float]
    ns: Sequence[int]
    targets: np.ndarray


def _stacks(jobs: Sequence[_Job], size: int):
    """The entries of the jobs in order, cut into stacks of at most ``size``:
    per stack, its (job index, slice of the job's entries) pieces."""
    stack, room = [], size
    for j, job in enumerate(jobs):
        start = 0
        while start < len(job.steps):
            stop = min(start + room, len(job.steps))
            stack.append((j, slice(start, stop)))
            room -= stop - start
            start = stop
            if not room:
                yield stack
                stack, room = [], size
    if stack:
        yield stack


def _errors(pair, jobs: Sequence[_Job]) -> list[list[float]]:
    """||U(t)^n - T||_2 for every entry (t, n, T) of every job, U the job's
    scheme: per job, its errors in order.

    The entries run job by job in stacks of at most ``_STACK_BYTES / (16 d^2)``.
    A stack makes one :func:`~commexp.matform.evaluate_scheme` call per job
    in it and groups the products by dtype, so no real product is widened to
    complex128.  Each group is raised to its step counts in one
    :func:`_matrix_powers` pass, has each job's targets subtracted in place
    and its norms taken in one :func:`~commexp.matform.two_norms` call; a
    group of one job is the ``evaluate_scheme`` array itself, not a copy.
    Every error equals the one its entry gives alone, bit for bit.
    """
    size = max(1, _STACK_BYTES // (16 * pair.dim ** 2))
    errors: list[list[float]] = [[] for _ in jobs]
    # an overflowing product turns up as two_norms' non-finite ValueError
    with np.errstate(over="ignore", invalid="ignore"):
        for stack in _stacks(jobs, size):
            groups: dict[tuple, list[list]] = {}
            for j, part in stack:
                U = matform.evaluate_scheme(jobs[j].scheme, pair, np.array(jobs[j].steps[part]))
                # a group is raised in the dtype of its products, then widened
                # to that of U - T, as the subtraction would widen it
                key = (U.dtype, np.promote_types(U.dtype, jobs[j].targets.dtype))
                groups.setdefault(key, []).append([j, part, U])
            del U
            for (_, dtype), group in groups.items():
                # each piece hands its product over, so that only the
                # group's stack stays alive
                P = (group[0].pop() if len(group) == 1
                     else np.concatenate([piece.pop() for piece in group]))
                P = _matrix_powers(P, [n for j, part in group for n in jobs[j].ns[part]])
                P = P.astype(dtype, copy=False)
                bounds = [0]
                for j, part in group:
                    bounds.append(bounds[-1] + part.stop - part.start)
                    P[bounds[-2]:bounds[-1]] -= jobs[j].targets[part]
                norms = matform.two_norms(P).tolist()
                for (j, _), a, b in zip(group, bounds, bounds[1:]):
                    errors[j] += norms[a:b]
    return errors


def _matrix_powers(U: np.ndarray, n_list: Sequence[int]) -> np.ndarray:
    """U[i] to the power n_list[i] >= 1 for each matrix of a (k, d, d) stack,
    in place, each bit for bit what ``np.linalg.matrix_power`` gives.

    The whole stack takes one pass of ``matrix_power``'s own loop over the
    bits of n, least significant first: at bit b, z = U^(2^b) is squared
    from z = U^(2^(b-1)), and an entry whose n has bit b set takes z as its
    result (at its lowest set bit) or multiplies it in on the right; n = 3
    is (U U) U, as ``matrix_power``'s shortcut computes it.  Entries with
    n > 1 run in order of decreasing n, so each squaring is one product on
    the prefix still rising, and so is each multiplication into the
    results, kept only for the entries it belongs to; n = 1 entries are left
    as they are.  A product that is not kept can overflow where
    ``matrix_power`` would not, so callers that expect overflow run this
    under their own ``np.errstate``, as :func:`_errors` does.
    """
    order = sorted((i for i, n in enumerate(n_list) if n > 1), key=lambda i: -n_list[i])
    if not order:
        return U
    ns = [int(n_list[i]) for i in order]
    # every result starts as U, which an odd n keeps, and an even n replaces
    # by z at its lowest set bit
    Z = U[order]
    R, spare = Z.copy(), np.empty_like(Z)
    m = len(ns)
    for bit in range(1, ns[0].bit_length()):
        while ns[m - 1] >> bit == 0:
            m -= 1
        np.matmul(Z[:m], Z[:m], out=spare[:m])
        Z, spare = spare, Z
        # per entry: 0 bit unset, 1 n's lowest set bit (take z), 2 a higher
        # one (R z), 3 n = 3 (z R)
        roles = [n >> bit & 1 and (1 if n % (1 << bit) == 0 else 2 + (n == 3)) for n in ns[:m]]
        for role, a, b in ((1, None, None), (2, R, Z), (3, Z, R)):
            if role not in roles:
                continue
            taken = Z[:m] if a is None else np.matmul(a[:m], b[:m], out=spare[:m])
            if roles.count(role) == m:
                R[:m] = taken
            else:
                np.copyto(R[:m], taken, where=np.array([r == role for r in roles]).reshape(-1, 1, 1))
    U[order] = R
    return U


def _reach(n_cap) -> int:
    """The largest step count the search probes: the largest power of two
    <= ``n_cap``."""
    return 1 << (int(n_cap).bit_length() - 1)


class _Search:
    """One x's search (see :func:`gates_for_tolerance`): ``probe`` is the step
    count to evaluate next, ``lo`` the largest probe missing ``tol`` and
    ``hi`` the smallest reaching it (None until one does), each with its
    error."""

    def __init__(self, p: float, tol: float, top: int):
        self.p, self.tol, self.top = p, tol, top
        self.probe = 1
        self.lo: tuple[int, float] = (0, math.inf)
        self.hi: tuple[int, float] | None = None
        self.width = 0  # hi - lo before the last step inside the bracket, 0 before any

    def record(self, error: float) -> bool:
        """Take the error of ``probe`` and choose the next; True once the
        search is done: the bracket is one step wide, or ``top`` missed."""
        n = self.probe
        doubled = n >= 2 * self.lo[0]
        if error > self.tol:
            self.lo = (n, error)
        else:
            self.hi = (n, error)
        if self.hi is None:
            if n >= self.top:
                return True
            # after a miss that did not double n, the next probe doubles it
            least = n + 1 if self.p > 0 and doubled else 2 * n
            guess = least
            if self.p > 0:  # the crossing n (err/tol)^(1/p), in logs against overflow
                log_n = math.log(n) + math.log(error / self.tol) / self.p
                guess = math.ceil(math.exp(min(log_n, math.log(self.top))))
            self.probe = min(max(guess, least), self.top)
            return False
        (lo, e_lo), (hi, e_hi) = self.lo, self.hi
        if hi - lo == 1:
            return True
        halved = self.width == 0 or 2 * (hi - lo) <= self.width + 1
        if self.p > 0 and halved and e_hi > 0:
            # the crossing of the straight line through both ends in log-log
            frac = math.log(e_lo / self.tol) / math.log(e_lo / e_hi)
            self.probe = min(max(math.ceil(lo * (hi / lo) ** frac), lo + 1), hi - 1)
        else:
            self.probe = (lo + hi) // 2
        self.width = hi - lo
        return False


def gates_for_tolerance(scheme, pair: matform.OperatorPair,
                        x_grid: Sequence[float], tol: float,
                        n_cap: int = DEFAULT_N_CAP) -> list[tuple[float, int | None]]:
    """Gate count reaching ``tol`` for each commutator strength x, with its
    one-step bracket.

    For each x the target is the scheme's target at t_total = x^k for a
    degree-k target (x^2 and per-step time x/sqrt(n) for a commutator).
    The count is n times the slot count for a step count n with
    err(n) <= tol < err(n - 1), both evaluated (n = 1 needs only the
    first).  Where the error is not monotone in n (near round-off) several
    n qualify; the probe sequence decides which is reported, and it need
    not be the smallest.

    The probes follow the model err ~ C n^(-p), p = (r + 1)/k - 1 for a
    scheme of order r.  After n = 1, each probe that misses ``tol`` jumps to
    the crossing it predicts, ceil(n (err/tol)^(1/p)), at least n + 1, or
    2n after a miss that did not double n.  Once a bracket exists, the next
    probe is the crossing interpolated in log-log between its ends, kept
    strictly inside it, or its midpoint after a step that did not halve it.
    So a search takes at most about twice the rounds of doubling and
    bisection, which is what p <= 0 takes.  Probes stop at the largest
    power of two <= ``n_cap``; ``None`` marks grid points where that count
    still misses ``tol``.  ``n_cap`` must be finite and at least 1
    (``ValueError`` otherwise).

    This is the one-scheme, one-tolerance :func:`cost_table`: the searches
    of all x run in lockstep, each round evaluating the current probe of
    every unfinished x as one stack, and each x probes the step counts its
    own search would.  The targets of all x are one
    :func:`~commexp.matform.target_matrix` call; a pair whose targets
    overflow raises one ``ValueError`` and no numpy warning.
    """
    gates = _gates([scheme], pair, x_grid, [tol], n_cap)
    return list(zip(x_grid, gates[float(tol), _scheme_key(scheme)]))


def _scheme_key(scheme):
    """What makes two entries of a table the same scheme: the name, or the
    object itself."""
    return scheme if isinstance(scheme, str) else id(scheme)


def _gates(scheme_list, pair: matform.OperatorPair, x_grid: Sequence[float],
           tols: Sequence[float], n_cap: int) -> dict[tuple, list[int | None]]:
    """:func:`gates_for_tolerance` of every scheme at every tolerance, keyed
    by (float(tol), :func:`_scheme_key`), all searches in one lockstep.

    Each round evaluates, per scheme with live searches, each distinct
    (x, n) probe once, however many tolerances probe it, as one job of one
    :func:`_errors` pass.  The targets are one
    :func:`~commexp.matform.target_matrix` call per distinct target.
    """
    distinct = {_scheme_key(s): _resolve_scheme(s) for s in scheme_list}
    for tol in tols:
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not all(0 < x <= 1 for x in x_grid):
        raise ValueError("x grid must lie in (0, 1]")
    if not (math.isfinite(n_cap) and n_cap >= 1):
        raise ValueError(f"n_cap must be finite and at least 1, got {n_cap!r}")
    targets = dict(zip(distinct, _targets(distinct.values(), pair, lambda _: np.asarray(x_grid))))
    top = _reach(n_cap)
    gates = {(tol, key): [None] * len(x_grid) for tol in map(float, tols) for key in distinct}
    live = {(tol, key, i): _Search((distinct[key].order + 1) / distinct[key].target.min_degree - 1,
                                   tol, top)
            for tol, key in gates for i in range(len(x_grid))}
    while live:
        # per scheme, the searches waiting on each (x, n) probe
        waiting: dict = {}
        for search_key, search in live.items():
            waiting.setdefault(search_key[1], {}).setdefault(
                (search_key[2], search.probe), []).append(search_key)
        jobs = []
        for key, probes in waiting.items():
            k = distinct[key].target.min_degree
            jobs.append(_Job(distinct[key], [_step_time(x_grid[i] ** k, n, k) for i, n in probes],
                             [n for _, n in probes], targets[key][[i for i, _ in probes]]))
        for (key, probes), errors in zip(waiting.items(), _errors(pair, jobs)):
            for searches, error in zip(probes.values(), errors):
                for search_key in searches:
                    search = live[search_key]
                    if search.record(error):
                        del live[search_key]
                        if search.hi is not None:
                            tol, _, i = search_key
                            gates[tol, key][i] = search.hi[0] * distinct[key].slot_count
    return gates


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
    """(t, error) of one application of the scheme against its own target,
    the t grid stacked as in :func:`error_curve`: one
    :func:`~commexp.matform.target_matrix` call for the grid's targets."""
    return _single_steps([scheme], pair, t_grid)[0]


def _single_steps(scheme_list, pair: matform.OperatorPair,
                  t_grid: Sequence[float]) -> list[list[tuple[float, float]]]:
    """:func:`single_step_errors` of each scheme, as one table: one target
    grid per distinct target and one :func:`_errors` pass."""
    resolved = [_resolve_scheme(s) for s in scheme_list]
    targets = _targets(resolved, pair, lambda _: np.asarray(t_grid))
    jobs = [_Job(scheme, t_grid, [1] * len(t_grid), T) for scheme, T in zip(resolved, targets)]
    return [[(float(t), error) for t, error in zip(t_grid, errors)]
            for errors in _errors(pair, jobs)]


def empirical_order(scheme, pair: matform.OperatorPair,
                    t_grid: Sequence[float] | None = None) -> float:
    """Slope of log error vs log t for a single step against the scheme's target.

    An order-r approximation shows slope r+1.  The fit (:func:`slope_fit`)
    keeps the errors inside its window; fewer than three raises.  The default
    grid is nine points from 2^-7 to 2^-3, evenly spaced in log t.
    """
    if t_grid is None:
        t_grid = _SINGLE_STEP_T_GRID
    return slope_fit(single_step_errors(scheme, pair, t_grid))


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
               ) -> int:
    """Write ``(comments, header, rows)`` sections, creating the parent directory.

    Each section is its ``# `` comment lines, the header and one line per row;
    floats print at 17 significant digits and ``None`` as "not reached".
    Returns the number of lines that are not comments, headers included.
    """
    lines = []
    for comments, header, rows in sections:
        lines.extend(f"# {c}" for c in comments)
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return sum(1 + len(rows) for _, _, rows in sections)


def curve_table(scheme_names, pairs, t_total, n_grid):
    """CSV header and rows of n-step error curves, pair by pair, scheme by scheme.

    The table is the unit of stacking: per pair, each distinct target is
    built once, each scheme's n grid is one
    :func:`~commexp.matform.evaluate_scheme` call, and the entries of all
    the curves are raised to their n in one pass and normed in one
    :func:`~commexp.matform.two_norms` call per dtype, in stacks of at most
    ``_STACK_BYTES / (16 d^2)`` entries.  Every row equals the one
    :func:`error_curve` gives for its scheme alone, bit for bit.
    """
    rows = []
    for pair in pairs:
        for curve in _curves(scheme_names, pair, t_total, n_grid):
            rows += [(res.scheme, res.pair, res.t_total, res.n, res.gates, res.error)
                     for res in curve]
    return ("scheme", "pair", "t_total", "n", "gates", "error"), rows


def cost_table(scheme_names, pair, x_grid, tol):
    """CSV header and rows of the gates each scheme needs to reach ``tol``
    per x, tolerance by tolerance (``tol`` is one tolerance or a sequence of
    them), scheme by scheme.

    All the (scheme, tolerance, x) searches run in one lockstep: each round
    makes one :func:`~commexp.matform.evaluate_scheme` call per scheme with
    live searches, evaluates a probe that several tolerances share once, and
    takes one powering and norm pass; the targets are built once per
    distinct target.  Every row equals the one :func:`gates_for_tolerance`
    gives for its scheme and tolerance alone.
    """
    tols = [tol] if np.ndim(tol) == 0 else list(tol)
    gates = _gates(scheme_names, pair, x_grid, tols, DEFAULT_N_CAP)
    rows = [(name, x, t, g) for t in tols for name in scheme_names
            for x, g in zip(x_grid, gates[float(t), _scheme_key(name)])]
    return ("scheme", "x", "tol", "gates"), rows


def provenance(pairs, scheme_names) -> list[str]:
    """CSV comment lines: per pair, how the schemes were multiplied out
    (:func:`~commexp.matform.evaluation_path`), then the commexp and numpy
    versions.

    The taylor path also names the pair's cached power depth
    (:attr:`~commexp.matform.OperatorPair.power_depth`).  A pair whose
    schemes do not all share one path and arithmetic names the schemes of
    each minority kind, e.g.
    ``random:16: taylor path, powers to Y^14, float64 arithmetic; taylor
    path, powers to Y^14, complex128 arithmetic for PCP6_3_imaginary``.
    """
    lines = []
    for pair in pairs:
        kinds: dict[tuple[str, str], list[str]] = {}
        for name in scheme_names:
            path = matform.evaluation_path(_resolve_scheme(name), pair)
            kinds.setdefault(path, []).append(name)
        depth = f", powers to Y^{pair.power_depth}"
        described = {(p, a): f"{p} path{depth if p == 'taylor' else ''}, {a} arithmetic"
                     for p, a in kinds}
        first, *others = sorted(kinds, key=lambda k: -len(kinds[k]))
        lines.append(f"{pair.label}: {described[first]}" + "".join(
            f"; {described[kind]} for {' '.join(kinds[kind])}" for kind in others))
    return lines + [f"commexp {__version__}", f"numpy {np.__version__}"]


def _export_curve_figure(which, out, scheme_names, t_total, seed):
    pairs = [matform.make_pair("pauli"), matform.make_pair("random", 16, seed)]
    header, rows = curve_table(scheme_names, pairs, t_total, DEFAULT_N_GRID)
    comments = [
        f"{which}: n-step composition error vs gate count, t_total={t_total:g}",
        f"pairs: pauli and random:16 (seed={seed}); n = 1..{DEFAULT_N_GRID[-1]}",
        *provenance(pairs, scheme_names),
    ]
    return _write_csv(out, [(comments, header, rows)])


def _export_fig5(out, seed):
    pair = matform.make_pair("pauli")
    header, rows = cost_table(_FIG5_SCHEMES, pair, _FIG5_X_GRID, _FIG5_TOLS)
    comments = [
        "fig5: gates needed to reach tolerance for exp(x^2 [A,B]) on the pauli pair",
        f"x grid {_FIG5_X_GRID[0]}..{_FIG5_X_GRID[-1]}, tolerances "
        + " and ".join(f"{t:g}" for t in _FIG5_TOLS)
        + f", step counts probed up to {_reach(DEFAULT_N_CAP)}",
        _OMISSION_NOTE,
        *provenance([pair], _FIG5_SCHEMES),
    ]
    return _write_csv(out, [(comments, header, rows)])


def _export_fig6(out, seed):
    pair = matform.make_pair("pauli")
    steps = [(name, t, err) for name, points in zip(
        _FIG6_SCHEMES, _single_steps(_FIG6_SCHEMES, pair, _FIG6_T_GRID)) for t, err in points]
    costs = [(name, res.gates, res.error) for name, curve in zip(
        _FIG6_SCHEMES, _curves(_FIG6_SCHEMES, pair, 1.0, _FIG6_N_GRID)) for res in curve]
    return _write_csv(out, [
        (["fig6: sum-splitting comparison on the pauli pair",
          "single-step error of one application vs step size t",
          *provenance([pair], _FIG6_SCHEMES)],
         ("method", "t", "error"), steps),
        (["cost table: n-step composition error vs gate count at t_total=1"],
         ("method", "gates", "error"), costs),
    ])


FIGURES: dict[str, Callable[[str, int], int]] = {
    "fig1": lambda out, seed: _export_curve_figure("fig1", out, _FIG1_SCHEMES, 1.0, seed),
    "fig2": lambda out, seed: _export_curve_figure("fig2", out, _FIG2_SCHEMES, 1.0, seed),
    "fig3": lambda out, seed: _export_curve_figure("fig3", out, _FIG1_SCHEMES, 10.0, seed),
    "fig5": _export_fig5,
    "fig6": _export_fig6,
}


def export_figure(which: str, out, seed: int = 0) -> int:
    """Write one of the named experiment protocols as CSV and return its
    number of lines that are not comments, headers included."""
    try:
        runner = FIGURES[which]
    except KeyError:
        raise ValueError(f"unknown figure {which!r}; choose from {sorted(FIGURES)}") from None
    return runner(str(out), seed)
