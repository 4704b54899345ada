"""Seeded workload generators.

Each workload turns a seed into the exact inputs the program receives: a
list of ``stonecheck`` argument vectors and, for ``document-session``, the
text of one JSON document.  Paths in the argument vectors are relative to
the directory the worker runs in: the document is ``doc.json`` and every
output file goes under ``out/``.

Nothing here imports stonecheck, so the inputs do not depend on the code
being measured.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

DOC = "doc.json"
OUT = "out"

# verify --all --seed S --count N draws N homomorphisms; N sits well above
# the 494 of the exhaustive tier so that per-hom costs dominate the run.
SAMPLED_COUNT = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exhaustive-4",
            7,
            "the headline certificate: every hom between powerset algebras of at "
            "most 4 atoms, no repeated inputs, dominated by the candidate search "
            "and the double-dual scans",
        ),
        Workload(
            "sampled-4",
            7,
            "seeded sample of 2000 homs drawn uniformly over sizes: small homs and "
            "fixed per-hom costs weigh more, all_homs is bypassed, and most "
            "samples repeat an earlier hom",
        ),
        Workload(
            "document-session",
            7,
            "interactive use: dual/canext/verify commands on a generated abstract "
            "document, each re-parsing it, so validation and the per-call "
            "completeness scan dominate",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    commands: list[list[str]]
    document: str | None = None


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload == "exhaustive-4":
        # The exhaustive tier has no free input; the seed changes nothing.
        return Inputs([["verify", "--all", "--max-atoms", "4", "--out", f"{OUT}/report.json"]])
    if workload == "sampled-4":
        return Inputs(
            [
                [
                    "verify", "--all", "--max-atoms", "4",
                    "--seed", str(seed), "--count", str(SAMPLED_COUNT),
                    "--out", f"{OUT}/report.json",
                ]
            ]
        )
    if workload == "document-session":
        return document_session(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _algebra_entry(rng: random.Random, name: str, atoms: int) -> tuple[dict, list[str]]:
    """An abstract presentation of the powerset algebra on ``atoms`` atoms.

    Element m (an atom mask) gets a random label; the carrier, the covering
    pairs and the complement pairs are each listed in shuffled order.
    Returns the entry and the label of each mask.
    """
    size = 1 << atoms
    tags = rng.sample(range(10 * size), size)
    labels = [f"{name}.{t}" for t in tags]
    carrier = labels[:]
    rng.shuffle(carrier)
    covers = [
        [labels[m], labels[m | 1 << i]]
        for m in range(size)
        for i in range(atoms)
        if not m >> i & 1
    ]
    rng.shuffle(covers)
    complement = [[labels[m], labels[(size - 1) ^ m]] for m in range(size)]
    rng.shuffle(complement)
    entry = {"name": name, "carrier": carrier, "leq": covers, "complement": complement}
    return entry, labels


def _hom_entry(
    rng: random.Random, name: str, src: tuple[str, int, list[str]], dst: tuple[str, int, list[str]]
) -> dict:
    """A ``map`` table for the hom induced by a random atom function.

    Target atom q tracks source atom g[q]: source mask m goes to the mask of
    every q with g[q] in m.
    """
    src_name, k1, src_labels = src
    dst_name, k2, dst_labels = dst
    g = [rng.randrange(k1) for _ in range(k2)]
    pairs = []
    for m in range(1 << k1):
        image = sum(1 << q for q in range(k2) if m >> g[q] & 1)
        pairs.append([src_labels[m], dst_labels[image]])
    rng.shuffle(pairs)
    return {"name": name, "source": src_name, "target": dst_name, "map": pairs}


def document_session(seed: int) -> Inputs:
    """One document and a session of 100 commands over it, in seeded order.

    The document holds algebras of 1, 2, 2, 3, 3, 4, 4, 4 and 5 atoms and 20
    homs: one for each pair of sizes up to 4 atoms, and four more between
    the larger ones.  Hom sizes are fixed so that the seed changes the
    inputs, not the work.  Each of five rounds runs ``dual --dot`` on every
    algebra, ``canext`` on every algebra without 4 atoms and on one with 4
    atoms, and ``verify`` on four homs.  A 4-atom ``canext`` pays the
    2**16-subset completeness scan and costs as much as a dozen other
    commands, which are dominated by re-parsing the document.
    """
    rng = random.Random(seed)
    algebras = []
    entries = []
    for i, atoms in enumerate([1, 2, 2, 3, 3, 4, 4, 4, 5]):
        name = f"b{i}"
        entry, labels = _algebra_entry(rng, name, atoms)
        entries.append(entry)
        algebras.append((name, atoms, labels))
    by_atoms = {k: [a for a in algebras if a[1] == k] for k in range(1, 5)}
    sizes = [(k1, k2) for k1 in range(1, 5) for k2 in range(1, 5)] + [(4, 4), (3, 4), (4, 3), (2, 4)]
    homs = [
        _hom_entry(rng, f"h{j}", rng.choice(by_atoms[k1]), rng.choice(by_atoms[k2]))
        for j, (k1, k2) in enumerate(sizes)
    ]
    document = json.dumps({"algebras": entries, "homs": homs}, indent=1) + "\n"

    commands = []
    for rnd in range(5):
        for name, atoms, _ in algebras:
            commands.append(["dual", DOC, name, "--dot", "--out", f"{OUT}/{rnd}-{name}.dot"])
            if atoms != 4:
                commands.append(["canext", DOC, name])
        commands.append(["canext", DOC, by_atoms[4][rnd % 3][0]])
        for hom in homs[4 * rnd : 4 * rnd + 4]:
            commands.append(["verify", DOC, hom["name"], "--out", f"{OUT}/{hom['name']}.json"])
    rng.shuffle(commands)
    return Inputs(commands, document)
