"""Warm microseconds per homomorphism of the check battery, per size block.

    PYTHONPATH=src python tests/battery_cost.py [--max-atoms K] [--repeat R]

For every pair (k1, k2) with 1 <= k1, k2 <= K (default ``MAX_ATOMS``), the
script builds every hom between ``powerset_algebra(k1)`` and
``powerset_algebra(k2)``, runs ``full_hom_instance`` on each once to fill
the per-algebra caches, then times R more passes over the block (default
5) and prints the fastest pass in microseconds per hom.  Each hom is
handed its atom function, as ``verify --all`` hands it, so the time is
the battery's and the instance descriptor's.  The k -> k diagonal is
printed last on one line.  Every instance must pass; the script exits 1
otherwise.  It is a measuring tool, not a test: pytest does not collect
it, and its numbers depend on the machine that runs it.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time

from stonecheck.algebra import MAX_ATOMS, all_homs, powerset_algebra
from stonecheck.harness import full_hom_instance


def block_cost(k1: int, k2: int, repeat: int) -> float:
    """The fastest of ``repeat`` warm passes over the (k1, k2) block, in
    microseconds per hom."""
    # all_homs lists the homs in the order of their atom functions
    functions = itertools.product(range(k1), repeat=k2)
    homs = list(zip(all_homs(powerset_algebra(k1), powerset_algebra(k2)), functions))
    if not all(full_hom_instance(h, atom_function=g).passed for h, g in homs):
        raise SystemExit(f"a hom of the {k1} -> {k2} block fails its battery")
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for h, g in homs:
            full_hom_instance(h, atom_function=g)
        best = min(best, time.perf_counter() - start)
    return best / len(homs) * 1e6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-atoms", type=int, default=MAX_ATOMS)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    sizes = range(1, args.max_atoms + 1)
    costs = {(k1, k2): block_cost(k1, k2, args.repeat) for k1 in sizes for k2 in sizes}
    print("us per hom, warm (rows k1 = source atoms, columns k2 = target atoms)")
    print("k1\\k2" + "".join(f"{k2:>8}" for k2 in sizes))
    for k1 in sizes:
        print(f"{k1:>5}" + "".join(f"{costs[k1, k2]:8.1f}" for k2 in sizes))
    print("k->k " + " ".join(f"{k}:{costs[k, k]:.1f}" for k in sizes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
