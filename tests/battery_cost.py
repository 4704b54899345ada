"""Warm microseconds per homomorphism of the check battery, per size block,
and of building the homs.

    PYTHONPATH=src python tests/battery_cost.py [--max-atoms K] [--repeat R]

For every pair (k1, k2) with 1 <= k1, k2 <= K (default ``MAX_ATOMS``), the
script builds every hom between ``powerset_algebra(k1)`` and
``powerset_algebra(k2)`` and times two ways of running the battery on
them, each once to fill the per-algebra caches and then R more passes
(default 5), keeping the fastest pass in microseconds per hom:

* block: the whole (k1, k2) block at once, one lane per hom, with each
  hom's instance made from its lane's verdicts, as ``verify --all`` runs it;
* one: ``full_hom_instance`` on each hom alone, a block of one, as
  ``verify DOC NAME`` runs it.

Each hom is handed its atom function, as ``verify --all`` hands it, so the
time is the battery's and the instance descriptor's.  The k -> k diagonal
of both is printed last, and then, for each k -> k block, the same
microseconds per hom of making its homs from their atom functions two
ways:

* lanes: one ``homs_from_atom_functions`` call for the block, as
  ``verify --all`` makes them;
* one: ``hom_from_atom_function`` on each function alone, a block of one,
  as a document's ``atom_map`` is made.

Every instance must pass; the script exits 1 otherwise.  It is a
measuring tool, not a test: pytest does not collect it, and its numbers
depend on the machine that runs it.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time

from stonecheck.algebra import (
    MAX_ATOMS,
    all_homs,
    hom_from_atom_function,
    homs_from_atom_functions,
    powerset_algebra,
)
from stonecheck.extension import sigma_lanes
from stonecheck.harness import (
    _ALL_PASSED,
    InstanceReport,
    _lane_checks,
    diagram_lanes,
    full_hom_instance,
    hom_descriptor,
)


def run_block(homs, functions) -> list[InstanceReport]:
    """The block's instances, as ``SuitePlan.run`` makes them."""
    verdicts, _ = _lane_checks(diagram_lanes(homs), sigma_lanes(homs))
    return [
        InstanceReport(hom_descriptor(h, atom_function=g), list(_ALL_PASSED) if v is None else v)
        for h, g, v in zip(homs, functions, verdicts)
    ]


def run_alone(homs, functions) -> list[InstanceReport]:
    return [full_hom_instance(h, atom_function=g) for h, g in zip(homs, functions)]


def fastest(run, repeat: int) -> float:
    """The fastest of ``repeat`` timed calls of ``run``, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def build_cost(k: int, repeat: int) -> tuple[float, float]:
    """The fastest of ``repeat`` passes making the k -> k block's homs, in
    lanes and one at a time, in microseconds per hom."""
    algebra = powerset_algebra(k)
    functions = list(itertools.product(range(k), repeat=k))
    lanes = fastest(lambda: homs_from_atom_functions(algebra, algebra, functions), repeat)
    one = fastest(lambda: [hom_from_atom_function(algebra, algebra, g) for g in functions], repeat)
    return lanes / len(functions) * 1e6, one / len(functions) * 1e6


def block_cost(k1: int, k2: int, repeat: int) -> tuple[float, float]:
    """The fastest of ``repeat`` warm passes over the (k1, k2) block, as one
    block and one hom at a time, in microseconds per hom."""
    # all_homs lists the homs in the order of their atom functions
    functions = list(itertools.product(range(k1), repeat=k2))
    homs = list(all_homs(powerset_algebra(k1), powerset_algebra(k2)))
    costs = []
    for run in (run_block, run_alone):
        if not all(inst.passed for inst in run(homs, functions)):
            raise SystemExit(f"a hom of the {k1} -> {k2} block fails its battery")
        costs.append(fastest(lambda: run(homs, functions), repeat) / len(homs) * 1e6)
    return costs[0], costs[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-atoms", type=int, default=MAX_ATOMS)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    sizes = range(1, args.max_atoms + 1)
    costs = {(k1, k2): block_cost(k1, k2, args.repeat) for k1 in sizes for k2 in sizes}
    for column, title in enumerate(("block", "one")):
        print(f"{title}: us per hom, warm (rows k1 = source atoms, columns k2 = target atoms)")
        print("k1\\k2" + "".join(f"{k2:>8}" for k2 in sizes))
        for k1 in sizes:
            print(f"{k1:>5}" + "".join(f"{costs[k1, k2][column]:8.1f}" for k2 in sizes))
    for column, title in enumerate(("block", "one")):
        print(f"k->k {title:<5} " + " ".join(f"{k}:{costs[k, k][column]:.1f}" for k in sizes))
    builds = [build_cost(k, args.repeat) for k in sizes]
    for column, title in enumerate(("lanes", "one")):
        print(f"k->k build {title:<5} " + " ".join(f"{k}:{b[column]:.1f}" for k, b in zip(sizes, builds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
