"""Warm microseconds of ``parse_document`` on a session-like document, by stage.

    PYTHONPATH=src python tests/parse_cost.py [--seed S] [--repeat R]

The script builds a seeded document like the one an interactive session
re-parses on every command: abstract presentations of the powerset
algebras on 1, 2, 2, 3, 3, 4, 4, 4 and 5 atoms, each with randomly named
elements and its carrier, covering pairs and complement pairs in shuffled
order, and 20 homs given as shuffled ``map`` tables: one for each pair of
sizes up to 4 atoms and four more between the larger algebras.  It then
times R passes (default 1000) and prints the fastest of each in
microseconds: the whole ``parse_document``; then, on a fresh ``json.loads``
each pass, the decode itself, the algebra entries summed by atom count, and
the hom entries summed.  The stages run the parser's own entry functions
in document order, so they add up to about the whole parse.  It is a
measuring tool, not a test: pytest does not collect it, and its numbers
depend on the machine that runs it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from stonecheck.documents import Document, _parse_algebra, _parse_hom, parse_document

ATOMS = (1, 2, 2, 3, 3, 4, 4, 4, 5)
HOM_SIZES = [(k1, k2) for k1 in range(1, 5) for k2 in range(1, 5)] + [(4, 4), (3, 4), (4, 3), (2, 4)]


def session_document(seed: int) -> str:
    """The document text: algebras named b0.. in ``ATOMS`` order, homs h0.."""
    rng = random.Random(seed)
    algebras, entries = [], []
    for k, atoms in enumerate(ATOMS):
        name, size = f"b{k}", 1 << atoms
        # labels[m] names the element whose atom mask is m
        labels = [f"{name}.{t}" for t in rng.sample(range(10 * size), size)]
        carrier = rng.sample(labels, size)
        covers = [
            [labels[m], labels[m | 1 << i]] for m in range(size) for i in range(atoms) if not m >> i & 1
        ]
        complement = [[labels[m], labels[(size - 1) ^ m]] for m in range(size)]
        rng.shuffle(covers)
        rng.shuffle(complement)
        entries.append({"name": name, "carrier": carrier, "leq": covers, "complement": complement})
        algebras.append((name, atoms, labels))
    homs = []
    for j, (k1, k2) in enumerate(HOM_SIZES):
        src_name, _, src_labels = rng.choice([a for a in algebras if a[1] == k1])
        dst_name, _, dst_labels = rng.choice([a for a in algebras if a[1] == k2])
        # target atom q tracks source atom g[q]
        g = [rng.randrange(k1) for _ in range(k2)]
        pairs = [
            [src_labels[m], dst_labels[sum(1 << q for q in range(k2) if m >> g[q] & 1)]]
            for m in range(1 << k1)
        ]
        rng.shuffle(pairs)
        homs.append({"name": f"h{j}", "source": src_name, "target": dst_name, "map": pairs})
    return json.dumps({"algebras": entries, "homs": homs}, indent=1) + "\n"


def stage_costs(text: str, repeat: int) -> dict[str, float]:
    """The fastest of ``repeat`` passes of each stage, in microseconds."""
    clock = time.perf_counter
    best: dict[str, float] = {}

    def keep(stage: str, seconds: float) -> None:
        best[stage] = min(best.get(stage, seconds), seconds)

    for _ in range(repeat):
        start = clock()
        parse_document(text)
        keep("parse_document", clock() - start)
    for _ in range(repeat):
        start = clock()
        data = json.loads(text)
        keep("json.loads", clock() - start)
        doc, by_atoms = Document(), {}
        for idx, (entry, atoms) in enumerate(zip(data["algebras"], ATOMS)):
            start = clock()
            _parse_algebra(entry, f"algebras[{idx}]", doc)
            by_atoms[atoms] = by_atoms.get(atoms, 0.0) + clock() - start
        for atoms, seconds in by_atoms.items():
            count = ATOMS.count(atoms)
            keep(f"{count} algebra{'s' * (count > 1)} of {atoms} atom{'s' * (atoms > 1)}", seconds)
        start = clock()
        for idx, entry in enumerate(data["homs"]):
            _parse_hom(entry, f"homs[{idx}]", doc)
        keep(f"{len(data['homs'])} homs", clock() - start)
    return {stage: seconds * 1e6 for stage, seconds in best.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=1000)
    args = parser.parse_args(argv)
    text = session_document(args.seed)
    costs = stage_costs(text, args.repeat)
    print(
        f"us, warm, fastest of {args.repeat}: a seed-{args.seed} document of "
        f"{len(text.encode())} bytes, {len(ATOMS)} algebras and {len(HOM_SIZES)} homs"
    )
    width = max(map(len, costs))
    for stage, micros in costs.items():
        print(f"  {stage:<{width}} {micros:8.1f}")
    stages = sum(micros for stage, micros in costs.items() if stage != "parse_document")
    print(f"  {'sum of the stages':<{width}} {stages:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
