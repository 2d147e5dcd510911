"""Output checks: each command's output against the reference recorded in refs/.

Numbers are compared within a stated tolerance, not bit for bit, so that an
evaluation path that reorders floating-point work (a spectral slot product
deviates by about 1e-11 from the Taylor ``expm`` path) still passes, while a
wrong product, which moves errors by orders of magnitude, does not.
"""

from __future__ import annotations

import json
import math
import re

# CSV values: |got - ref| <= CSV_RTOL * max(|got|, |ref|) + CSV_ATOL * scale, where
# scale is the largest value of the same curve (same scheme and pair) in the
# reference, at least 1.  Both are set from the largest deviations of an
# eigenbasis (spectral) slot product from the Taylor expm path over the
# random pairs: 5.3e-4 relative on fig3 errors near 1e-6, and 3.6e-10 of the scale
# on fig1 errors at the round-off floor of a 4096-step product, so CSV_ATOL
# leaves a margin of about 3.  A wrong product moves errors by orders of
# magnitude.
CSV_RTOL = 1e-3
CSV_ATOL = 1e-9
# A cost-table gate count may differ from the reference only at a tolerance
# boundary: where the reference error at the found step count, or one below
# it, lies within BOUNDARY_RTOL of the tolerance.  There it may move by one
# step, or by BOUNDARY_RTOL of the count when the search ran to large counts,
# where consecutive step counts change the error by less than round-off.
BOUNDARY_RTOL = 1e-2
# verify prints E and E/s to 6 significant digits.
VERIFY_RTOL = 2e-6
# optimize must land this close to the closed-form minimiser.
OPTIMIZE_ATOL = 1e-6
# Schemes whose leading error term lies past the degree-6 basis: their E/s is
# expected to change (word-coefficient norm today, basis norm later), so only
# "order verified" is checked.
UNPINNED_E_MIN_ORDER = 6


def _num(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _is_int(text: str) -> bool:
    return re.fullmatch(r"-?\d+", text) is not None


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return False
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _data_lines(text: str) -> list[str]:
    # comment lines carry provenance, which may legitimately change
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def _curve_scales(lines: list[str]) -> dict:
    """Largest |value| per curve; a curve is a header plus the row's text fields."""
    scales: dict = {}
    header: tuple = ()
    for line in lines:
        cells = line.split(",")
        if all(_num(c) is None for c in cells):
            header = tuple(cells)
            continue
        key = (header, tuple(c for c in cells if _num(c) is None))
        values = [abs(float(c)) for c in cells if _num(c) is not None and not _is_int(c)]
        scales[key] = max([scales.get(key, 1.0), *values])
    return scales


def compare_csv(text: str, ref: dict) -> list[str]:
    """Problems found comparing a CSV export with its reference entry.

    ``ref["csv"]`` is the reference text.  Cost tables also carry
    ``ref["gates"]``: per data line, ``None`` or ``[slots, margin]``, where
    ``margin`` is the reference error's relative distance to the tolerance.
    """
    got, want = _data_lines(text), _data_lines(ref["csv"])
    if len(got) != len(want):
        return [f"{len(got)} data lines, reference has {len(want)}"]
    gates_info = ref.get("gates")
    scales = _curve_scales(want)
    header: list[str] = []
    problems = []
    for i, (g_line, w_line) in enumerate(zip(got, want)):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        if len(g_cells) != len(w_cells):
            problems.append(f"line {i + 1}: {len(g_cells)} fields, reference {len(w_cells)}")
            continue
        if all(_num(c) is None for c in w_cells):
            header = w_cells
        scale = scales.get((tuple(header), tuple(c for c in w_cells if _num(c) is None)), 1.0)
        for col, (g, w) in enumerate(zip(g_cells, w_cells)):
            if g == w:
                continue
            gv, wv = _num(g), _num(w)
            column = header[col] if col < len(header) else str(col)
            where = f"line {i + 1} {column}"
            if gv is None or wv is None:
                problems.append(f"{where}: {g!r} != {w!r}")
            elif _is_int(w) or _is_int(g):
                info = gates_info[i] if gates_info and column == "gates" else None
                at_boundary = info is not None and info[1] <= BOUNDARY_RTOL
                if not (at_boundary and _is_int(g) and abs(int(g) - int(w))
                        <= max(info[0], BOUNDARY_RTOL * int(w))):
                    problems.append(f"{where}: {g} != {w}")
            elif not _close(gv, wv, CSV_RTOL, CSV_ATOL * scale):
                problems.append(f"{where}: {g} vs reference {w}")
    return problems


_NUM = r"[-+0-9.eEinfa]+"
_VERIFIED = re.compile(rf"^(?P<name>.+): order (?P<order>\d+) verified, "
                       rf"E = (?P<E>{_NUM}), E/s = (?P<Es>{_NUM})")
_RESIDUAL = re.compile(rf"^degree (?P<d>\d+): max residual (?P<r>{_NUM})$")


def check_verify(rc: int, stdout: str, ref: dict, tol: float = 1e-10) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    lines = stdout.strip().splitlines()
    want = ref["stdout"].strip().splitlines()
    m, w = _VERIFIED.match(lines[-1]) if lines else None, _VERIFIED.match(want[-1])
    if m is None:
        return [f"no 'order verified' line in {lines[-1:]!r}"]
    problems = []
    if (m["name"], m["order"]) != (w["name"], w["order"]):
        problems.append(f"verified {m['name']} order {m['order']}, "
                        f"reference {w['name']} order {w['order']}")
    degrees = [_RESIDUAL.match(line) for line in lines[:-1]]
    if len(degrees) != int(w["order"]) or any(d is None for d in degrees):
        problems.append("residual lines do not cover degrees 1..order")
    elif any(float(d["r"]) > tol for d in degrees):
        problems.append("a printed residual exceeds the verify tolerance")
    if int(w["order"]) < UNPINNED_E_MIN_ORDER:
        for key in ("E", "Es"):
            if not _close(float(m[key]), float(w[key]), VERIFY_RTOL):
                problems.append(f"{key} = {m[key]}, reference {w[key]}")
    return problems


def check_export(rc: int, stdout: str, written: str, ref: dict) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    got, want = json.loads(written), json.loads(ref["json"])
    problems = [f"{k} differs" for k in ("name", "target", "order", "family")
                if got.get(k) != want.get(k)]
    if len(got["slots"]) != len(want["slots"]):
        return problems + ["slot count differs"]
    for i, (g, w) in enumerate(zip(got["slots"], want["slots"])):
        gc, wc = (complex(*c) if isinstance(c, list) else complex(c)
                  for c in (g["coefficient"], w["coefficient"]))
        if g["generator"] != w["generator"] or abs(gc - wc) > 1e-15 * max(1.0, abs(wc)):
            problems.append(f"slot {i} differs")
    return problems


_MINIMIZER = re.compile(rf"minimizer (?P<label>\w+) = (?P<p>{_NUM}), E = (?P<E>{_NUM})")
_REFERENCE = re.compile(rf"closed-form reference \w+\* = (?P<p>{_NUM})")


def check_optimize(rc: int, stdout: str, ref: dict) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    m, r = _MINIMIZER.search(stdout), _REFERENCE.search(stdout)
    want_m, want_r = _MINIMIZER.search(ref["stdout"]), _REFERENCE.search(ref["stdout"])
    if m is None or r is None:
        return ["minimizer or closed-form reference missing from output"]
    problems = []
    if not _close(float(r["p"]), float(want_r["p"]), 1e-12):
        problems.append(f"closed-form reference {r['p']} changed from {want_r['p']}")
    if abs(float(m["p"]) - float(want_r["p"])) > OPTIMIZE_ATOL:
        problems.append(f"minimizer {m['p']} is not within {OPTIMIZE_ATOL:g} "
                        f"of {want_r['p']}")
    if not _close(float(m["E"]), float(want_m["E"]), 1e-7):
        problems.append(f"E = {m['E']}, reference {want_m['E']}")
    return problems


def check_csv(rc: int, stdout: str, written: str, ref: dict) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    return compare_csv(written, ref)


def check_refined(scheme, tol: float) -> list[str]:
    """A refined scheme must satisfy its order conditions at refine's tolerance."""
    from commexp.conditions import order_residuals

    report = order_residuals(scheme, scheme.target, scheme.order, tol)
    if report.all_satisfied():
        return []
    return [f"order {scheme.order} not satisfied at tol {tol:g} "
            f"(verified through degree {report.verified_order})"]
