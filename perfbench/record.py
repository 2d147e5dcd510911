"""Record the reference outputs in refs/ from the current sources.

    python3 perfbench/record.py [workload ...]

Runs every command of the workloads (a run seed only changes their order;
refined schemes are checked against their order conditions instead) and
stores what it printed or wrote.  Cost tables also get, per row, the
reference error's relative distance to the tolerance at the found step count
and one below it, which is what lets ``checks.compare_csv`` accept a gate count
that moved across a tolerance boundary.  Only re-record when an output change
is intended, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads as W
from run import run_command


def _cli(cmd) -> tuple[str, str]:
    dt, output, crash = run_command(cmd)
    if crash or output[0] != 0:
        raise RuntimeError(f"{cmd.label}: {crash or output}")
    return output[1], output[2]


def _step_error(scheme, pair, x: float, n: int) -> float:
    import numpy as np
    from commexp.matform import evaluate_scheme, target_matrix, two_norm

    k = scheme.target.min_degree
    T = target_matrix(scheme.target, pair, x)
    U = evaluate_scheme(scheme, pair, (x ** k / n) ** (1.0 / k))
    return two_norm(np.linalg.matrix_power(U, n) - T)


def _gate_margins(text: str, pair) -> list:
    """Per data line: None, or [slot count, relative distance of error to tol]."""
    from commexp.schemes import catalog_get

    out = []
    for line in (l for l in text.splitlines() if l and not l.startswith("#")):
        name, x, tol, gates = line.split(",")
        if gates in ("gates", "not reached"):
            out.append(None)
            continue
        scheme = catalog_get(name)
        x, tol, n = float(x), float(tol), int(gates) // scheme.slot_count
        ns = [n, n - 1] if n > 1 else [n]
        margin = min(abs(_step_error(scheme, pair, x, m) - tol) for m in ns) / tol
        out.append([scheme.slot_count, margin])
    return out


def _pair(cmd):
    from commexp.matform import make_pair

    argv = list(cmd.argv)
    spec = argv[argv.index("--pair") + 1] if "--pair" in argv else "pauli"
    if spec == "pauli":
        return make_pair("pauli")
    seed = int(argv[argv.index("--seed") + 1])
    return make_pair("random", int(spec.split(":")[1]), seed)


def _csv_ref(cmd) -> dict:
    _, written = _cli(cmd)
    ref = {"csv": written}
    if cmd.check == "cost":
        ref["gates"] = _gate_margins(written, _pair(cmd))
    return ref


def series_catalog(work: Path) -> dict:
    refs = {}
    for cmd in W.series_catalog(0, work):
        if cmd.check == "verify" and cmd.ref not in refs:
            refs[cmd.ref] = {"stdout": _cli(cmd)[0]}
        elif cmd.check == "export":
            refs[cmd.ref] = {"json": _cli(cmd)[1]}
        elif cmd.check == "optimize":
            refs[cmd.ref] = {"stdout": _cli(cmd)[0]}
    return refs


def figures_small(work: Path) -> dict:
    return {cmd.ref: _csv_ref(cmd) for cmd in W.figures_small(0, work)}


def dense_random(work: Path) -> dict:
    return {cmd.ref: _csv_ref(cmd) for cmd in W.dense_random(0, work)}


RECORDERS = {"series-catalog": series_catalog, "figures-small": figures_small,
             "dense-random": dense_random}


def main(argv) -> int:
    names = argv or list(RECORDERS)
    run.pin_blas()  # the same BLAS setting as a benchmark run
    sys.path.insert(0, str(run.SRC))
    (run.HERE / "refs").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name in names:
            refs = RECORDERS[name](Path(tmp))
            path = run.HERE / "refs" / f"{name}.json"
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"{name}: {len(refs)} references -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
