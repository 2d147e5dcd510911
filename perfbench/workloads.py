"""The three benchmark workloads, each a command list built from a seed.

A *command* is one user-level operation: one ``commexp.cli.main([...])`` call
or one public library call (``refine``).  A run repeats its workload's list
unchanged, so every batch does the same work and batch times are comparable.

The random operator pairs have fixed seeds, so that every command has a
reference output recorded in ``refs/`` (see ``record.py``), and so have the
perturbations fed to ``refine``.  Runs with
different seeds are compared with each other, so the run seed changes no
amount of work: it only shuffles the order of the commands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# The catalog as of the commit that defined the benchmark.  Spelled out so the
# workload stays the same when the catalog grows.
CATALOG = (
    "U21", "U22", "S2_chen", "S3_chen", "NCP6_3", "NCP10_4", "PCP16_5", "PCP26_6",
    "PCP12_4", "NCP18_5", "PCP6_3_imaginary", "strang", "fap8", "aor4_opt",
    "combined5", "phi3", "phi4", "phi5", "yoshida4", "suzuki4", "zass_sym22",
    "nested4_50",
)
# refine needs real coefficients (not PCP6_3_imaginary) and at least as many
# free coefficients as conditions (yoshida4 has 7 for 8).
NOT_REFINABLE = ("PCP6_3_imaginary", "yoshida4")
REFINABLE = tuple(n for n in CATALOG if n not in NOT_REFINABLE)
REFINE_TOL = 1e-13
# Relative size of the coefficient noise fed to refine, drawn from a fixed
# seed: refine's time depends on the draw (NCP10_4 took 28 to 41 ms over four
# draws), so every run refines the same perturbed schemes.
PERTURBATION = 2e-5
PERTURBATION_SEED = 0

OPTIMIZE = (("third_order", "0.4:1.2"), ("aor4", "0.1:0.6"))

# Latency percentiles are taken over a batch's commands (see run.py), so every
# list is long enough that the tail percentile has ten commands beyond it.
#
# figures-small runs on fixed pairs: on a random:16 pair the work depends on
# the pair (the matrix norm sets expm's squarings, two_norm iterates to
# convergence, the error sets a cost table's search), by up to 60% for one
# figure over four seeds.  Its run seed only shuffles the command order.
FIG_SEEDS = (11, 23)
FIG_PAIR_SEED = 11
FIG_N = ",".join(str(2 ** k) for k in range(9))
FIG_CURVES = ("NCP6_3", "NCP10_4", "PCP16_5", "PCP12_4", "NCP18_5", "PCP26_6",
              "strang", "S3_chen", "suzuki4", "phi4", "aor4_opt", "combined5")
FIG_TABLES = ("NCP10_4", "PCP12_4", "PCP16_5", "NCP18_5")
FIG_GRID = "0.2,0.4,0.6,0.8"
FIG_TOL = "1e-7"

# dense-random: (schemes, grid, pair seeds), one command per seed, so every
# command gets a fresh pair.  The work depends on the pair here too (one d=64
# NCP18_5 curve took 59 to 85 ms over twelve seeds), so every run uses all the
# seeds and its run seed only shuffles the command order.  The counts make
# d=256 expm the largest share of the time, and put the latency median among
# the PCP26_6 curves and the tail among the cost tables, not on the edge
# between two kinds of command; the 6 d=256 curves are the slowest.
D256_CURVES = (("NCP10_4", "1", tuple(range(200, 206))),)
D64_CURVES = (("PCP16_5", "1,4", tuple(range(100, 109))),
              ("NCP18_5", "1,4", tuple(range(120, 129))),
              ("PCP26_6", "1,4", tuple(range(140, 148))))
D64_TABLES = (("NCP10_4", "0.3", tuple(range(160, 168))),)
D64_TOL = "1e-6"


@dataclass(frozen=True)
class Command:
    """One timed operation and how to check what it produced.

    ``ref`` keys the reference output; ``check`` names the checker in
    ``checks.py``.  CLI commands carry ``argv`` (and ``out``, the CSV or
    scheme file they write); library commands carry ``scheme``.
    """

    ref: str
    check: str
    argv: tuple[str, ...] = ()
    out: Path | None = None
    scheme: object = field(default=None, compare=False)

    @property
    def label(self) -> str:
        return " ".join(self.argv) if self.argv else f"refine({self.ref})"


def _perturbed(name: str, rng: random.Random):
    """A catalog scheme with every coefficient moved by up to PERTURBATION, relatively.

    Mirrored (CP) schemes keep their half-pattern, so refine takes its
    counter-palindromic path; the rest take the general per-slot path.
    """
    from commexp import conditions, schemes

    base = schemes.catalog_get(name)
    if base.is_cp:
        half = [c * (1.0 + PERTURBATION * rng.uniform(-1.0, 1.0)) for c in base.cp_half]
        return conditions.cp_expand(half, base.cp_sign, name=base.name,
                                    order=base.order, note=base.note)
    slots = tuple(schemes.ExponentSlot(s.generator,
                                       s.coefficient * (1.0 + PERTURBATION * rng.uniform(-1.0, 1.0)))
                  for s in base.slots)
    return schemes.Scheme(name=base.name, slots=slots, target=base.target,
                          order=base.order, family=base.family, note=base.note)


def series_catalog(seed: int, work: Path) -> list[Command]:
    # units keep each export before the verify that reads its file
    units = [[Command(f"verify:{n}", "verify", ("verify", "--scheme", n))] for n in CATALOG]
    for n in CATALOG:
        path = work / f"{n}.json"
        units.append([Command(f"export:{n}", "export", ("schemes", "export", n, str(path)),
                              out=path),
                      Command(f"verify:{n}", "verify", ("verify", "--scheme", str(path)))])
    rng = random.Random(PERTURBATION_SEED)
    units += [[Command(f"refine:{n}", "refine", scheme=_perturbed(n, rng))] for n in REFINABLE]
    units += [[Command(f"optimize:{family}", "optimize",
                       ("optimize", "--family", family, "--range", prange))]
              for family, prange in OPTIMIZE]
    random.Random(seed).shuffle(units)
    return [cmd for unit in units for cmd in unit]


def custom_key(schemes: str, pair: str, seed: int | None, grid: str, tol: str | None) -> str:
    pair_id = pair if seed is None else f"{pair}@{seed}"
    return f"custom:{schemes}:{pair_id}:{grid}" + (f":{tol}" if tol else "")


def custom(work: Path, tag: str, schemes: str, pair: str, seed: int | None,
           n: str | None = None, x: str | None = None, tol: str | None = None) -> Command:
    """A ``bench --custom`` error curve (``n``) or cost table (``x`` and ``tol``)."""
    out = work / f"{tag}.csv"
    argv = ["bench", "--custom", "--schemes", schemes, "--pair", pair]
    if seed is not None:
        argv += ["--seed", str(seed)]
    argv += ["--n", n] if n else ["--x", x, "--tol", tol]
    argv += ["--out", str(out)]
    return Command(custom_key(schemes, pair, seed, n or x, tol), "csv" if n else "cost",
                   tuple(argv), out=out)


def figure(work: Path, fig: str, seed: int) -> Command:
    out = work / f"{fig}-{seed}.csv"
    # fig5 and fig6 run on the fixed pauli pair only; their output ignores the seed
    ref = fig if fig in ("fig5", "fig6") else f"{fig}@{seed}"
    return Command(ref, "cost" if fig == "fig5" else "csv",
                   ("bench", "--figure", fig, "--seed", str(seed), "--out", str(out)), out=out)


def figures_small(seed: int, work: Path) -> list[Command]:
    cmds = [figure(work, f, s) for s in FIG_SEEDS for f in ("fig1", "fig2", "fig3")]
    cmds += [figure(work, "fig5", FIG_SEEDS[0]), figure(work, "fig6", FIG_SEEDS[0])]
    for pair, seed_ in (("pauli", None), ("random:16", FIG_PAIR_SEED)):
        tag = pair.replace(":", "")
        cmds += [custom(work, f"curve-{name}-{tag}", name, pair, seed_, n=FIG_N)
                 for name in FIG_CURVES]
        cmds += [custom(work, f"table-{name}-{tag}", name, pair, seed_, x=FIG_GRID, tol=FIG_TOL)
                 for name in FIG_TABLES]
    random.Random(seed).shuffle(cmds)
    return cmds


def dense_random(seed: int, work: Path) -> list[Command]:
    cmds = [custom(work, f"{pair}-{names}-{s}", names, pair, s, n=grid)
            for pair, templates in (("random:256", D256_CURVES), ("random:64", D64_CURVES))
            for names, grid, seeds in templates for s in seeds]
    cmds += [custom(work, f"table-{names}-{s}", names, "random:64", s, x=grid, tol=D64_TOL)
             for names, grid, seeds in D64_TABLES for s in seeds]
    random.Random(seed).shuffle(cmds)
    return cmds


WORKLOADS = {
    "series-catalog": series_catalog,
    "figures-small": figures_small,
    "dense-random": dense_random,
}
