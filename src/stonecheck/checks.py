"""What the check battery computes without the diagram.

The battery (``harness._lane_checks``) runs every hom of a block at once,
one hom per byte lane.  A point table of a block keeps entry A of lane j at
byte ``A * lanes + j`` (entry-major), and a block of preimage tables keeps
each lane's table as one run of bytes (hom-major).  The helpers that move
between the layouts, name the lanes in which two blocks differ and test a
block for atom additivity are ``algebra``'s, whose builder of a block's
homs reads them too.  The helpers here run the battery's other tests of a
whole block that read no diagram: the premises of the corollary and
forward images by subset doubling.  With them are the plain scan that
names the first law a failing table breaks and the shrinker of a failing
hom.  They belong to the battery alone: neither extension path calls them.
"""

from __future__ import annotations

from typing import Callable

from .algebra import (
    BoolHom,
    _subset_union_lanes,
    atom_additive,
    atom_function_of_hom,
    hom_from_atom_function,
    powerset_algebra,
)
from .duality import phi_table
from .errors import InvariantViolation

# a point x below 8 to its one-point mask 1 << x, as a ``bytes.translate`` table
_ONE_HOT = bytes([1 << x for x in range(8)]).ljust(256, b"\0")


def _premises(images: bytes, elements: int, size: int) -> tuple[list[bool], list[bool]]:
    """Whether each hom of a block is one-to-one and whether it is onto,
    from its image table, one run of ``elements`` bytes per hom: as many
    distinct images as source elements, or as the target's ``size``."""
    distinct = [len(set(images[s : s + elements])) for s in range(0, len(images), elements)]
    return [d == elements for d in distinct], [d == size for d in distinct]


def _forward_images(table, lanes: int = 1) -> bytes:
    """The image of every point set (bitmask) under each lane's point table,
    entry S of lane j at byte ``S * lanes + j``: the union of the one-point
    masks of the images of the points of S."""
    ones = bytes(table).translate(_ONE_HOT)
    parts = [ones[v : v + lanes] for v in range(0, len(ones), lanes)]
    return _subset_union_lanes(parts, lanes)


def _hom_law_witness(sigma_table, n1: int, n2: int) -> dict | None:
    """The first Boolean-algebra law a table between powersets breaks, or None.

    A table that ``atom_additive`` accepts keeps every law.  Any other
    breaks one, and a plain scan names the first: bounds first; then for
    each a in turn the meet and the join with every b, then the complement
    of a.
    """
    if atom_additive(sigma_table, n1, n2):
        return None
    size1, full2 = 1 << n1, (1 << n2) - 1
    full1 = size1 - 1
    if sigma_table[0] != 0 or sigma_table[full1] != full2:
        return {"law": "bounds"}
    for a in range(size1):
        s = sigma_table[a]
        for b in range(size1):
            if sigma_table[a & b] != s & sigma_table[b]:
                return {"law": "meet", "pair": [a, b]}
            if sigma_table[a | b] != s | sigma_table[b]:
                return {"law": "join", "pair": [a, b]}
        if sigma_table[full1 ^ a] != full2 ^ s:
            return {"law": "complement", "element": a}
    raise InvariantViolation("a table that keeps every law is not atom additive", list(sigma_table))


def shrink_failing_hom(h: BoolHom, fails: Callable[[BoolHom], bool]) -> dict:
    """Minimize a failing instance by dropping target atoms and compressing.

    Each step deletes one coordinate of the dual atom function and renumbers
    the surviving source atoms; the first smaller instance that still fails
    is taken, repeatedly, so the reported witness is locally minimal.  When
    no coordinate can be dropped, the source atoms are still renumbered,
    and that compressed instance is kept only if it fails too; otherwise the
    original instance is reported.  Every witness therefore names a real
    instance: each entry lies below ``source_atoms``.
    """
    current = tuple(atom_function_of_hom(h))
    source_atoms = h.source.atom_count
    improved = True
    while improved:
        improved = False
        for drop in range(len(current)):
            sub = current[:drop] + current[drop + 1 :]
            if not sub:
                continue
            remapped, candidate = _compressed(sub)
            if fails(candidate):
                current, source_atoms = remapped, candidate.source.atom_count
                improved = True
                break
    if source_atoms > len(set(current)):
        remapped, candidate = _compressed(current)
        if fails(candidate):
            current, source_atoms = remapped, candidate.source.atom_count
    return {
        "source_atoms": source_atoms,
        "target_atoms": len(current),
        "atom_function": list(current),
    }


def _compressed(atom_function: tuple[int, ...]) -> tuple[tuple[int, ...], BoolHom]:
    """``atom_function`` with its source atoms renumbered, in order, onto
    the ones it uses, and the hom between powersets that it defines."""
    used = sorted(set(atom_function))
    remapped = tuple(map(used.index, atom_function))
    candidate = hom_from_atom_function(
        powerset_algebra(len(used)), powerset_algebra(len(remapped)), remapped
    )
    return remapped, candidate


def _first(witnesses):
    """The first witness of a scan, or None when the scan finds none."""
    return next(iter(witnesses), None)


def _lane_witnesses(
    diagram, j: int, sigma_table: tuple, forward: bytes, flagged: list[bool], hat_phi
) -> list[dict | None]:
    """The witness of each flagged check but the first on lane j's own
    tables of a block (a ``harness.DiagramLanes``), by the plain scans, in
    index order; None for the checks not flagged and for those whose scan
    finds nothing.  ``forward`` is the hom's forward-image table
    (``_forward_images``) and ``hat_phi`` its source's double-dual
    embedding.  The first check's witness, which shrinks the hom, is the
    harness's."""
    witnesses: list[dict | None] = [None] * len(flagged)
    h, lanes = diagram.homs[j], len(diagram.homs)
    beta1, beta2 = diagram.beta1, diagram.beta2
    n1, n2 = beta1.base.size, beta2.base.size
    double_dual, lifted = diagram.double_dual[j::lanes], diagram.h_star_beta.table[j::lanes]
    points1, points2 = beta1.points_as_ultrafilters, beta2.points_as_ultrafilters
    if flagged[1]:
        phi1, phi2 = phi_table(h.source), phi_table(h.target)
        witnesses[1] = _first(
            {"element": a}
            for a in range(h.source.size)
            if double_dual[phi1[a]] != phi2[h.table[a]]
        )
    if flagged[2]:
        size = 1 << n1
        preimages = diagram.h_star.preimages[j * size : (j + 1) * size]
        witnesses[2] = _first(
            {"subset_mask": a, "point": d}
            for a, upstairs in enumerate(hat_phi)
            for d, img in enumerate(lifted)
            if upstairs >> img & 1 != points2[d].members >> preimages[a] & 1
        )
    if flagged[3]:
        witnesses[3] = _hom_law_witness(sigma_table, n1, n2)
    for k in (4, 5, 6):
        if flagged[k]:
            witnesses[k] = {"table": list(sigma_table)}
    if flagged[7]:
        witnesses[7] = {"candidates": diagram.candidate_counts[j]}
    if flagged[8]:
        h_star = diagram.h_star.table[j::lanes]
        witnesses[8] = _first(
            {"point": v} for v in range(n2) if lifted[beta2.embed[v]] != beta1.embed[h_star[v]]
        )
    if flagged[9]:
        witnesses[9] = {"lift": list(diagram.lift[j::lanes]), "extension": list(lifted)}
    if flagged[10]:
        witnesses[10] = _first(
            {"point": d, "member_mask": a}
            for d, nabla in enumerate(points2)
            for a in range(1 << n2)
            if nabla.members >> a & 1 and not points1[lifted[d]].members >> forward[a] & 1
        )
    return witnesses
