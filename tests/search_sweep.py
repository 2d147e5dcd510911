"""Rounds and evaluations of the cost-table search on a seeded sweep of
random tables.

Each table is one catalog scheme on the pauli, random:4 or random:16 pair
(seed 11), at one tolerance 10^-3 .. 10^-9 and 1 to 4 x points.  A round is
one lockstep pass of :func:`commexp.bench._gates` (one ``_errors`` call) and
an evaluation one (x, n) probe of it, counted by wrapping ``bench._errors``,
so the script runs against any version of the package:

    PYTHONPATH=src python tests/search_sweep.py [--tables 100] [--seed 1]

prints one line per table (rounds, evaluations, the gates column, the
table) and a totals line.  Run it on two source trees and compare the lines
to compare their search rules.
"""

from __future__ import annotations

import argparse
import random

from commexp import bench, matform, schemes

PAIRS = ("pauli", "random:4", "random:16")


def sweep(tables: int, seed: int) -> list[tuple[str, int, int, list]]:
    """(table, rounds, evaluations, gates) of each table of the sweep."""
    rng = random.Random(seed)
    names = list(schemes.catalog_names())
    pairs = {"pauli": matform.make_pair("pauli"),
             "random:4": matform.make_pair("random", 4, 11),
             "random:16": matform.make_pair("random", 16, 11)}
    counts: list[int] = []
    errors = bench._errors

    def counted(pair, jobs):
        counts.append(sum(len(job.ns) for job in jobs))
        return errors(pair, jobs)

    bench._errors = counted
    out = []
    try:
        for _ in range(tables):
            name, pair = rng.choice(names), rng.choice(PAIRS)
            tol = 10.0 ** -rng.randint(3, 9)
            x_grid = sorted(round(rng.uniform(0.05, 1.0), 2) for _ in range(rng.randint(1, 4)))
            counts.clear()
            _, rows = bench.cost_table([name], pairs[pair], x_grid, tol)
            out.append((f"{name} {pair} tol={tol:g} x={x_grid}", len(counts), sum(counts),
                        [gates for *_, gates in rows]))
    finally:
        bench._errors = errors
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tables", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rows = sweep(args.tables, args.seed)
    for table, rounds, evaluations, gates in rows:
        print(f"{rounds:3d} {evaluations:4d} {gates} {table}")
    print(f"total: {len(rows)} tables, {sum(r[1] for r in rows)} rounds, "
          f"{sum(r[2] for r in rows)} evaluations")


if __name__ == "__main__":
    main()
