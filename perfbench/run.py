"""Run one commexp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload series-catalog --seed 1 --seconds 36 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.  A
run repeats the workload's command list (see ``workloads.py``) a fixed number
of times, the number that fills ``--seconds`` at the commit that defined the
benchmark, and times the lazy set-up in fresh interpreters between batches.
Every command's output is checked against ``refs/``.

Times are CPU times in reference seconds (see ``speed.py``): scaled by a
fixed reference kernel timed next to every command, so that a host that is
slower for minutes does not read as slower code.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced batches and prints the per-layer metrics instead, with
the tracing overhead; its spans are written to ``.perfbench_run/`` at exit.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import speed
from workloads import REFINE_TOL, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

# One BLAS thread on every commit: at most nproc, and steadier than two on a
# shared two-core machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """Pin BLAS threads; call before numpy is imported anywhere in this process
    or its children (CPU times would add up the threads' work)."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)

# Fresh set-up interpreters started before each batch, so the set-up samples
# are spread over the run like the command runs.  A batch's set-up time is the
# fastest of its samples (other tenants only add time); setup_s is the median
# over the batches.
SETUP_PER_BATCH = 4
# Reference-kernel passes a set-up interpreter times after its set-up (the
# first SETUP_REF_WARM are not counted); the median scales its set-up time.
SETUP_REF_PASSES = 9
SETUP_REF_WARM = 2
# A command's CPU time is scaled by the median of the SCALE_WINDOW kernel
# passes before it and the SCALE_WINDOW after it: the host's speed changes
# within seconds, faster than a batch.
SCALE_WINDOW = 4
# Seconds one batch and its set-up samples took at the commit that defined the
# benchmark (2-vCPU Xeon, one BLAS thread).  A run makes round(seconds / this)
# batches on every commit, so each command's median is always taken over the
# same number of runs; only a host so slow that the run would pass
# STOP_AFTER x seconds ends it early (after MIN_BATCHES).
NOMINAL_BATCH_S = {"series-catalog": 6.0, "figures-small": 7.2, "dense-random": 9.0}
MIN_BATCHES = 3
STOP_AFTER = 1.15
# A traced run makes half as many untraced/traced pairs.
TRACE_PAIR_SHARE = 2
MIN_TRACE_PAIRS = 2
# cmd_tail_ms has exactly this many commands beyond it.
TAIL_BEYOND = 10

# The end-to-end metrics (--trace 0).  The failure share, failed / attempted,
# is carried by the result's own "failed" and "attempted" fields.
END_TO_END = {"setup_s": "s", "batch_s": "s", "cmd_p50_ms": "ms", "cmd_tail_ms": "ms",
              "peak_rss_mb": "MB"}
DIMS = (2, 16, 64, 256)

_SETUP_CHILD = """
import json, statistics, sys, time
t0 = time.process_time()
sys.path.insert(0, sys.argv[1])
import commexp.cli
from commexp import liealg, schemes
tracer = None
if sys.argv[3] == "1":
    sys.path.insert(0, sys.argv[2])
    from tracing import Tracer
    tracer = Tracer().install()
liealg.basis_build()
for name in schemes.catalog_names():
    schemes.catalog_get(name)
t1 = time.process_time()
sys.path.insert(0, sys.argv[2])
import speed
parts = speed.SETUP_PARTS
refs = [speed.reference_s(parts) for _ in range(int(sys.argv[4]))][int(sys.argv[5]):]
basis = tracer.summarize().total_s("liealg.basis_build") if tracer else None
print(json.dumps({"setup_s": speed.scale(t1 - t0, statistics.median(refs), parts),
                  "basis_build_s": basis}))
"""


# --------------------------------------------------------------------------
# measurement pieces
# --------------------------------------------------------------------------


def setup_sample(traced: bool) -> dict:
    """Set-up time of one fresh interpreter.

    Set-up is what every CLI call pays before it does any work: importing
    the package (numpy included) and its command-line module, building the
    Lie basis and constructing the catalog.  Its CPU time is scaled by the
    reference kernel timed in the same interpreter right after it.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE), "1" if traced else "0",
         str(SETUP_REF_PASSES), str(SETUP_REF_WARM)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_command(cmd):
    """Run one command; return (wall seconds, CPU seconds, output, crash message or None).

    ``output`` is what the command produced (exit code, stdout and the file it
    wrote, or the refined scheme), so two runs can be compared byte for byte.
    """
    from commexp import cli, conditions

    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if cmd.argv:
            out_buf, err_buf = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
                t0, c0 = time.perf_counter(), time.process_time()
                rc = cli.main(list(cmd.argv))
                dc = time.process_time() - c0
                dt = time.perf_counter() - t0
            written = cmd.out.read_text(encoding="utf-8") if cmd.out and rc == 0 else ""
            if rc != 0 and err_buf.getvalue():
                print(err_buf.getvalue(), file=sys.stderr, end="")
            return dt, dc, (rc, out_buf.getvalue(), written), None
        refined = conditions.refine(cmd.scheme, tol=REFINE_TOL)
        dc = time.process_time() - c0
        return time.perf_counter() - t0, dc, refined, None
    except Exception:  # a crashing command is a failed command, not a failed run
        dc = time.process_time() - c0
        return (time.perf_counter() - t0, dc, None,
                traceback.format_exc().strip().splitlines()[-1])


def check_output(cmd, output, refs: dict) -> list[str]:
    if not cmd.argv:
        return checks.check_refined(output, REFINE_TOL)
    rc, stdout, written = output
    ref = refs[cmd.ref]
    if cmd.check == "verify":
        return checks.check_verify(rc, stdout, ref)
    if cmd.check == "export":
        return checks.check_export(rc, stdout, written, ref)
    if cmd.check == "optimize":
        return checks.check_optimize(rc, stdout, ref)
    return checks.check_csv(rc, stdout, written, ref)


def comparable(output):
    """The bytes-level content of a command's output."""
    if output is None or isinstance(output, tuple):
        return output
    return tuple(repr(s.coefficient) for s in output.slots)


class Batch:
    """One pass over the command list, the reference kernel timed before each
    command and after the last; output checks run outside the timing and, in
    a traced batch, outside the spans."""

    def __init__(self, cmds, refs, parts, tracer=None):
        self.parts = parts  # the reference kernel's parts that scale the CPU times
        self.latencies: list[float] = []  # wall seconds
        self.cpu: list[float] = []
        self.ref: list[float] = []
        self.failures: list[tuple[str, list[str]]] = []
        self.outputs: list = []
        self.spans = None
        lo = len(tracer) if tracer is not None else 0
        with tracer if tracer is not None else contextlib.nullcontext():
            for cmd in cmds:
                self.ref.append(speed.reference_s(parts))
                dt, dc, output, crash = run_command(cmd)
                with tracer.paused() if tracer is not None else contextlib.nullcontext():
                    try:
                        problems = [crash] if crash else check_output(cmd, output, refs)
                    except (KeyError, IndexError, ValueError, TypeError) as exc:
                        problems = [f"output not in the expected form: {exc!r}"]
                self.latencies.append(dt)
                self.cpu.append(dc)
                self.outputs.append(comparable(output))
                if problems:
                    self.failures.append((cmd.label, problems))
            self.ref.append(speed.reference_s(parts))
        if tracer is not None:
            self.spans = tracer.summarize(lo, len(tracer))

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    def scaled(self) -> list[float]:
        """Each command's CPU time in reference seconds, scaled by the kernel
        passes nearest it (``self.ref[i]`` ran just before command ``i``)."""
        return [speed.scale(c, statistics.median(self.ref[max(0, i - SCALE_WINDOW + 1):
                                                         i + SCALE_WINDOW + 1]),
                            self.parts)
                for i, c in enumerate(self.cpu)]


def run_batches(cmds, refs, parts, count: int, deadline: float,
                tracer=None) -> tuple[list[Batch], list[Batch], list[list[dict]]]:
    """Run ``count`` batches (with a tracer, untraced/traced pairs), each after
    SETUP_PER_BATCH set-up samples.

    Once MIN_BATCHES have run, no batch starts that the last one's duration
    says would end past ``deadline`` (a perf_counter time).
    """
    plain: list[Batch] = []
    traced: list[Batch] = []
    setups: list[list[dict]] = []
    last = 0.0
    while len(plain) < count:
        t0 = time.perf_counter()
        if len(plain) >= MIN_BATCHES and t0 + last > deadline:
            break
        setups.append([setup_sample(tracer is not None) for _ in range(SETUP_PER_BATCH)])
        plain.append(Batch(cmds, refs, parts))
        if tracer is not None:
            traced.append(Batch(cmds, refs, parts, tracer))
        last = time.perf_counter() - t0
    return plain, traced, setups


def batch_count(workload: str, seconds: float, trace: bool) -> int:
    """Batches (or traced pairs) a run makes: fixed by ``seconds`` and the workload."""
    count = max(MIN_BATCHES, round(seconds / NOMINAL_BATCH_S[workload]))
    return max(MIN_TRACE_PAIRS, count // TRACE_PAIR_SHARE) if trace else count


def command_latencies(batches: list[Batch]) -> list[float]:
    """Each command's latency in reference seconds: the median of its runs,
    one per batch.

    The runs of one command do the same work.  Scaled by the kernel passes
    around them, what is left between them is noise in both directions, so
    the median measures the command.  Over the halves of two 8-batch runs
    of each workload on a shared 2-vCPU Xeon, the batch total, median and
    tail moved by 2% to 10% this way, and by 6% to 40% as the fastest run
    scaled by the whole batch's kernel time.  The spread that matters,
    between commands, is kept by taking percentiles over the command list.
    """
    return [statistics.median(runs) for runs in zip(*(b.scaled() for b in batches))]


def tail_percentile(n_commands: int) -> float:
    """The highest percentile of ``n_commands`` latencies with TAIL_BEYOND
    commands beyond it: the (TAIL_BEYOND + 1)-th largest, as ``percentile``
    interpolates."""
    if n_commands <= TAIL_BEYOND:
        raise ValueError(f"{n_commands} commands leave none with {TAIL_BEYOND} beyond")
    return 100.0 * (n_commands - 1 - TAIL_BEYOND) / (n_commands - 1)


def percentile(values, p: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(s) -> dict[str, float]:
    """Per-layer metrics of one traced batch (baseline.json's ``layer_map`` says
    which end-to-end metric each should move)."""
    m: dict[str, float] = {}
    for name in ("liealg.scheme_log", "liealg.series_mul", "liealg.lie_project",
                 "conditions.order_residuals", "conditions.effective_error",
                 "conditions.refine", "schemes.catalog_get", "matform.evaluate_scheme",
                 "bench.error_curve", "cli.main"):
        m[f"{name}.calls"] = s.calls(name)
        m[f"{name}.self_s"] = s.self_s(name)
    # inclusive: the product-and-log work that self time splits across series_mul
    m["liealg.scheme_log.total_s"] = s.total_s("liealg.scheme_log")
    for name in ("liealg.series_log", "conditions.optimize_free_parameter",
                 "schemes.save_scheme", "schemes.load_scheme", "matform.target_matrix",
                 "matform.make_pair", "bench.single_step_errors",
                 "bench.gates_for_tolerance", "bench.export_figure"):
        m[f"{name}.self_s"] = s.self_s(name)
    for name in ("matform.expm", "matform.two_norm"):
        for d in DIMS:
            m[f"{name}.calls.d{d}"] = s.calls(name, d)
            m[f"{name}.self_s.d{d}"] = s.self_s(name, d)
    refines = s.calls("conditions.refine")
    m["conditions.refine.scheme_log_per_call"] = (
        s.calls_under("liealg.scheme_log", "conditions.refine") / refines if refines else 0.0)
    # every objective evaluation starts with one order_residuals call
    m["conditions.optimize_free_parameter.objective_evals"] = s.calls_under(
        "conditions.order_residuals", "conditions.optimize_free_parameter")
    points = s.size_sum("bench.gates_for_tolerance")
    m["bench.gates_for_tolerance.evals_per_point"] = (
        s.calls_under("matform.evaluate_scheme", "bench.gates_for_tolerance") / points
        if points else 0.0)
    return m


def is_count(name: str) -> bool:
    return ".calls" in name or name.endswith(("_per_call", ".objective_evals",
                                               ".evals_per_point"))


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # show_config's layout is not a stable API
        blas_name = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def git_sha(root: Path) -> str | None:
    """HEAD of ``root`` when it is a git work tree (no search above it), else None."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def load_refs(workload: str) -> dict:
    return json.loads((HERE / "refs" / f"{workload}.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, trace: bool,
        count: int | None = None) -> dict:
    """Measure one workload; return the result object (with 'report' for humans).

    ``count`` overrides the number of batches (or traced pairs).
    """
    import commexp
    from commexp import liealg, schemes
    from tracing import Tracer

    if Path(commexp.__file__).resolve().parent != (SRC / "commexp").resolve():
        raise RuntimeError(f"imported commexp from {commexp.__file__}, not from {SRC}")
    t_start = time.perf_counter()
    refs = load_refs(workload)
    liealg.basis_build()
    for name in schemes.catalog_names():
        schemes.catalog_get(name)

    work = RUN_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    parts = speed.WORKLOAD_PARTS[workload]
    try:
        cmds = WORKLOADS[workload](seed, work)
        if count is None:
            count = batch_count(workload, seconds, trace)
        if trace:
            # the first pass over the list runs cold; it would make the first
            # pair's untraced batch slow and trace.overhead_s read below zero
            Batch(cmds, refs, parts)
        plain, traced, setups = run_batches(cmds, refs, parts, count,
                                            t_start + STOP_AFTER * seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    batches = plain + traced
    failures = [f for b in batches for f in b.failures]
    failed = len(failures)
    attempted = sum(len(b.latencies) for b in batches)
    prov = provenance(workload, seed)
    prov.update(batches=len(plain), commands_per_batch=len(cmds),
                failed_frac=failed / attempted, setup_samples=sum(map(len, setups)),
                run_s=round(time.perf_counter() - t_start, 3))
    correct = not failures

    if not trace:
        latencies = command_latencies(plain)
        tail_p = tail_percentile(len(cmds))
        metrics = {
            "setup_s": statistics.median(min(s["setup_s"] for s in b) for b in setups),
            "batch_s": sum(latencies),
            "cmd_p50_ms": 1e3 * percentile(latencies, 50.0),
            "cmd_tail_ms": 1e3 * percentile(latencies, tail_p),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        # p50 and the tail are percentiles over the commands' median runs
        prov.update(latency_samples=len(latencies), runs_per_command=len(plain),
                    tail_percentile=round(tail_p, 3),
                    ref_kernel_ms=round(1e3 * statistics.median(r for b in plain for r in b.ref), 4),
                    wall_s=round(sum(map(min, zip(*(b.latencies for b in plain)))), 4),
                    cpu_s=round(sum(map(min, zip(*(b.cpu for b in plain)))), 4))
    else:
        per_batch = [layer_metrics(b.spans) for b in traced]
        metrics = {}
        for name in per_batch[0]:
            values = [pb[name] for pb in per_batch]
            if is_count(name) and len(set(values)) != 1:
                correct = False
                failures.append(("trace", [f"count {name} varies between batches: {values}"]))
            metrics[name] = values[0] if is_count(name) else min(values)
        metrics["liealg.basis_build.s"] = statistics.median(
            s["basis_build_s"] for b in setups for s in b)
        # paired batches run back to back, so their difference cancels most of
        # the host's drift; a difference of two runs' minima does not
        metrics["trace.overhead_s"] = statistics.median(
            t.wall_s - p.wall_s for p, t in zip(plain, traced))
        units = {n: ("count" if is_count(n) else "s") for n in metrics}
        prov.update(traced_batches=len(traced), spans=len(tracer),
                    patched_bindings=len(tracer.bindings))
        RUN_DIR.mkdir(exist_ok=True)
        tracer.dump(RUN_DIR / f"spans-{workload}-seed{seed}.npz")

    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
        "report": {"provenance": prov, "failures": failures[:20]},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "commexp" / "__init__.py").is_file():
        print(f"error: no commexp sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas()
    sys.path[:0] = [str(SRC), str(HERE)]

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report = result.pop("report")
    for name, m in result["metrics"].items():
        print(f"{name:<55} {m['value']:.6g} {m['unit']}")
    for label, problems in report["failures"]:
        print(f"FAILED {label}: {'; '.join(problems)}")
    print(json.dumps({"provenance": report["provenance"]}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
