"""Builds the duality diagram for a homomorphism and verifies the extension laws.

Two independent computations sit at the heart of the verification: the
filter-formula extension (``extension.sigma_extend``) and the diagram chase
through the compactified ultrafilter spaces (``build_diagram`` /
``double_dual_map``).  The two paths share nothing beyond the ultrafilters
of an algebra and two error types -- ``audit.py`` enforces that statically
against an explicit list -- so their exhaustive agreement on every subset
is genuine evidence rather than a tautology.

``build_diagram`` only builds the diagram; one check battery
(``_lane_checks``, which ``full_hom_instance`` runs on a block of one)
judges it, so a diagram that disagrees with itself or with the filter
formula becomes a failed check with a witness, and so does an extension
search that finds more than one table (the diagram goes on with the
first).

Both work a block at a time: every hom with one source and one target
algebra, one hom per byte lane.  A table of a block keeps entry A of lane
j at byte ``A * lanes + j`` (entry-major), so each entry of every hom is
one int whose byte j is hom j's value; a block of preimage tables keeps
each lane's table as one run of bytes (hom-major), so a translation
through one ultrafilter's indicator reads every lane's row at once.  Each
step of either path is then a few ``bytes.translate``, join, shift and
mask operations per block, whatever its number of homs, and a block of
one is the per-hom case: ``sigma_extend(h)`` runs ``sigma_lanes([h])``,
and ``build_diagram(h)`` is the one-hom ``DiagramLanes`` of
``diagram_lanes([h])``, which the battery reads as it is.

Each path reads what depends on one algebra only off one record per
algebra, built with the algebra's first block and freed with the
algebra.  The diagram path's record is the algebra's ``_DiagramSide``: the
compactification of its ultrafilters, its ``hat_phi_table``, that table's
inverse as translation tables and its bit rows (the filter formula's is
``extension._filter_plan``, and the two share nothing).  Each arrow of the
diagram reads the one block of preimage tables of its point maps, built
and tested for continuity once per arrow (``duality.ContinuousLanes``),
and the double dual of a block is that block gathered at the embedded
subsets and translated through the inverse.  The compactification's base,
space, embedding, point indicators, member rows and holders are plain
fields that the battery reads off the diagram, so a fault swapped into a
diagram reaches its check.

The battery (``_lane_checks``) runs one test of the whole block per check:
the sigma tables against the double duals as one comparison, the
extension's homomorphism laws by atom additivity
(``algebra._lawless_lanes``: each table is the union of its atom images,
which partition the target), the preimage membership equivalence and the
forward-image lemma as byte rows of every lane, and the premises of the
corollary, whether each hom is one-to-one and onto, from its image table
(``checks._premises``).  Each test names the lanes it may fail in, and
only a named lane gets a plain scan of its own tables, in index order
(``checks._lane_witnesses``), so each check reports the first witness of
the literal scan.  A passing check is one shared
``CheckResult`` per name, and a hom whose checks all pass gets a fresh
list of the eleven.  ``SuitePlan.run`` makes a block's homs from their
atom functions (``algebra.homs_from_atom_functions``) and runs the block
when its first hom comes up in report order, and keeps each lane's
verdicts until that hom's first draw is made; a block whose build or
battery raises is run again one hom at a time, each when it comes up.
"""

from __future__ import annotations

import itertools
import random
from functools import cache
from itertools import compress
from operator import add, and_, gt
from typing import Iterator, Sequence

from .algebra import (
    MAX_ATOMS,
    BoolHom,
    FieldEquality,
    FinBoolAlg,
    _differing,
    _entries,
    _gather,
    _lawless_lanes,
    atom_additive,
    atom_function_of_hom,
    hom_from_atom_function,
    homs_from_atom_functions,
    object_cache,
    powerset_algebra,
    ultrafilters,
)
from .compactification import (
    BetaSpace,
    beta_lift_lanes,
    beta_space,
    extension_candidates_lanes,
    sole_extension,
)
from .duality import (
    ContinuousLanes,
    dual_map_lanes,
    hat_phi_table,
    phi_table,
    stone_representation,
)
from .errors import BoundExceeded, InvariantViolation, NoClopenPreimage
from .extension import canonical_extension, sigma_extend, sigma_lanes
from .checks import (
    _first,
    _forward_images,
    _lane_witnesses,
    _ONE_HOT,
    _premises,
    shrink_failing_hom,
)


class CheckResult(FieldEquality):
    """A named check and its witness: it passes exactly when there is none."""

    _fields = ("name", "witness")
    __slots__ = (*_fields, "__weakref__")

    def __init__(self, name: str, witness: dict | None = None) -> None:
        self.name = name
        self.witness = witness

    @property
    def verdict(self) -> str:
        return "pass" if self.witness is None else "fail"

    def as_row(self) -> dict:
        """The check as report data: name and verdict, plus the witness if any."""
        row: dict = {"name": self.name, "verdict": self.verdict}
        if self.witness is not None:
            row["witness"] = self.witness
        return row


class InstanceReport(FieldEquality):
    _fields = ("descriptor", "checks")
    __slots__ = (*_fields, "__weakref__")
    __hash__ = None

    def __init__(self, descriptor: dict, checks: list[CheckResult]) -> None:
        self.descriptor = descriptor
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(c.witness is None for c in self.checks)


class VerificationReport(FieldEquality):
    _fields = ("instances",)
    __slots__ = (*_fields, "__weakref__")
    __hash__ = None

    def __init__(self, instances: list[InstanceReport] | None = None) -> None:
        self.instances = [] if instances is None else instances


def hom_descriptor(
    h: BoolHom, name: str | None = None, atom_function: Sequence[int] | None = None
) -> dict:
    """The instance descriptor of a hom; ``atom_function``, when the caller
    built h from it, spares re-deriving it from the table."""
    if atom_function is None:
        atom_function = atom_function_of_hom(h)
    d = _descriptor_of(h.source.atom_count, atom_function)
    if name is not None:
        d["name"] = name
    return d


def _descriptor_of(source_atoms: int, atom_function: Sequence[int]) -> dict:
    """The instance descriptor of the hom from the powerset of
    ``source_atoms`` atoms that ``atom_function`` induces."""
    g = list(atom_function)
    return {"kind": "hom", "source_atoms": source_atoms, "target_atoms": len(g), "atom_function": g}


class DiagramLanes:
    """Every arrow of the construction square for a block of homs with one
    source and one target, one lane per hom: the maps as
    ``ContinuousLanes``, the double dual and the lift with entry A of lane
    j at byte ``A * lanes + j``, and the number of continuous extensions
    each lane's search found.  A block of one hom is a single diagram.

    ``candidate_counts`` and ``lift``, the ultrafilter-formula table, are
    kept so that the checks read them instead of recomputing them."""

    __slots__ = (
        "homs", "h_star", "beta1", "beta2", "h_star_beta",
        "double_dual", "candidate_counts", "lift", "__weakref__",
    )

    def __init__(
        self,
        homs: Sequence[BoolHom],
        h_star: ContinuousLanes,
        beta1: BetaSpace,
        beta2: BetaSpace,
        h_star_beta: ContinuousLanes,
        double_dual: bytes,
        candidate_counts: list[int],
        lift: bytes,
    ) -> None:
        self.homs = homs
        self.h_star = h_star
        self.beta1 = beta1
        self.beta2 = beta2
        self.h_star_beta = h_star_beta
        self.double_dual = double_dual
        self.candidate_counts = candidate_counts
        self.lift = lift


def build_diagram(h: BoolHom) -> DiagramLanes:
    """Construct every arrow of the square, without judging it: the block
    of one hom of ``diagram_lanes``."""
    return diagram_lanes([h])


def diagram_lanes(homs: Sequence[BoolHom]) -> DiagramLanes:
    """Construct every arrow of the square for each hom of a block, without
    judging it.

    The compactified map is computed twice -- once as the certified unique
    continuous extension, once by the ultrafilter lift formula.  Whether the
    two tables agree and whether the square commutes is decided by the
    battery's ``lift_paths_agree`` and ``extension_square_commutes`` checks.
    """
    h_star = dual_map_lanes(homs)
    side1, side2 = _diagram_side(homs[0].source), _diagram_side(homs[0].target)
    beta1, beta2 = side1.beta, side2.beta
    composed = h_star.table.translate(bytes(beta1.embed).ljust(256, b"\0"))
    candidates = extension_candidates_lanes(beta2, composed, beta1.space, len(homs))
    via_extension = sole_extension(candidates)
    counts = [0] * len(homs)
    for _, found in candidates:
        counts = list(map(add, counts, found.to_bytes(len(homs), "little")))
    via_formula = beta_lift_lanes(h_star, beta2, beta1)
    double_dual = _double_dual_lanes(side1, side2, via_extension.preimages, len(homs))
    return DiagramLanes(
        homs, h_star, beta1, beta2, via_extension, double_dual, counts, via_formula.table
    )


class _DiagramSide:
    """What the diagram path reads of one algebra, whatever the hom: the
    compactification of its ultrafilters, its ``hat_phi_table``, and values
    derived from that table when the record is made.  ``fibres`` inverts
    it: every subset mask with a given point mask, keyed by that mask, so a
    point mask with no subset is absent and one with several lists them
    all; ``inverse`` and ``unmatched`` are 256-byte ``bytes.translate``
    tables of it, byte m the one subset with point mask m, and 1 when m
    has none or several.  Row d, byte A of ``bit_rows`` is 1 when the
    double-dual point d lies in hat_phi(A)."""

    __slots__ = ("beta", "hat_phi", "fibres", "inverse", "unmatched", "bit_rows", "__weakref__")

    def __init__(self, beta: BetaSpace, hat_phi: tuple[int, ...]) -> None:
        self.beta = beta
        self.hat_phi = hat_phi
        self.fibres = fibres = {}
        for subset_mask, points in enumerate(hat_phi):
            fibres[points] = fibres.get(points, ()) + (subset_mask,)
        self.inverse, self.unmatched = _fibre_tables(fibres)
        self.bit_rows = tuple(bytes(p >> d & 1 for p in hat_phi) for d in range(beta.base.size))


def _fibre_tables(fibres: dict[int, tuple[int, ...]]) -> tuple[bytes, bytes]:
    """The ``inverse`` and ``unmatched`` translation tables of a side's fibres."""
    inverse, unmatched = bytearray(256), bytearray(b"\1" * 256)
    for points, subsets in fibres.items():
        if 0 <= points < 256 and len(subsets) == 1:
            inverse[points], unmatched[points] = subsets[0], 0
    return bytes(inverse), bytes(unmatched)


@object_cache
def _diagram_side(algebra: FinBoolAlg) -> _DiagramSide:
    """The algebra's ``_DiagramSide``, built once per algebra and freed with it."""
    return _DiagramSide(beta_space(ultrafilters(algebra)), hat_phi_table(algebra))


def double_dual_map(diagram: DiagramLanes, subset_mask: int) -> int:
    """The dual of the compactified map of a one-hom diagram at one subset,
    by its defining preimage equation (see ``_double_dual_lanes``)."""
    (h,) = diagram.homs
    sides = _diagram_side(h.source), _diagram_side(h.target)
    return _double_dual_lanes(*sides, diagram.h_star_beta.preimages, 1)[subset_mask]


def _double_dual_lanes(
    source: _DiagramSide, target: _DiagramSide, preimages: bytes, lanes: int
) -> bytes:
    """The dual of each lane's compactified map at every subset, entry A of
    lane j at byte ``A * lanes + j``.

    Embeds each subset into the double dual (the source's ``hat_phi``),
    pulls it back through every lane's compactified map (the preimage
    tables, one run per lane), and translates that preimage into the
    target subset whose embedding it is (the target's ``inverse``).
    Duality guarantees exactly one: a miss raises NoClopenPreimage and
    several raise InvariantViolation, both library-bug signals, at the
    first subset that has them in some lane.
    """
    size = 1 << source.beta.base.size
    pulled = b"".join([preimages[upstairs::size] for upstairs in source.hat_phi])
    misses = pulled.translate(target.unmatched)
    if 1 in misses:
        k = misses.index(1)
        if not target.fibres.get(pulled[k], ()):
            raise NoClopenPreimage("preimage is not the embedding of any subset", k // lanes)
        raise InvariantViolation("double-dual image is not unique", k // lanes)
    return pulled.translate(target.inverse)


@cache
def _passed(name: str) -> CheckResult:
    """The passing result of a check, one shared object per name (no code
    assigns a field of a record after its ``__init__``)."""
    return CheckResult(name)


# The per-homomorphism battery's checks, in report order, and their passing
# rows, which a battery whose checks all pass returns as a fresh list.
BATTERY = (
    "sigma_equals_double_dual", "embedded_elements_preserved", "preimage_membership_equivalence",
    "sigma_is_boolean_hom", "sigma_injective_when_injective", "sigma_surjective_when_surjective",
    "sigma_isomorphism_when_isomorphism", "unique_continuous_extension",
    "extension_square_commutes", "lift_paths_agree", "forward_image_in_lifted_ultrafilter",
)
_ALL_PASSED = tuple(map(_passed, BATTERY))

def _verdict(name: str, witness: dict | None) -> CheckResult:
    """A check that passes exactly when it found no witness."""
    return _passed(name) if witness is None else CheckResult(name, witness)


def _lane_checks(diagram: DiagramLanes, sigma: bytes) -> tuple[list, tuple[int, int, int]]:
    """The per-homomorphism battery over a block: the main theorem, its
    corollary, and the compactification facts the diagram rests on.

    Each check is one test of the whole block, a few translations, joins,
    shifts and masks, that names the lanes it may fail in; a named lane
    then gets the plain scan of its own tables, in index order, so each
    check reports the first witness of the literal scan.  Returns, per
    lane, None when all eleven checks pass, else its list of results; and
    how many homs of the block are one-to-one, onto, and both, the premises
    of the corollary's three checks.
    """
    homs = diagram.homs
    h, lanes = homs[0], len(homs)
    double_dual, h_star, lifted = diagram.double_dual, diagram.h_star, diagram.h_star_beta.table
    beta1, beta2 = diagram.beta1, diagram.beta2
    n1, n2 = beta1.base.size, beta2.base.size
    size1, size2 = 1 << n1, 1 << n2
    source, target = h.source, h.target
    images = b"".join([bytes(g.table) for g in homs])
    every = range(lanes)
    suspects: list = [()] * len(BATTERY)

    if sigma != double_dual:
        suspects[0] = _differing(sigma, double_dual, lanes)
    embedded = _gather(double_dual, phi_table(source), lanes)
    expected = _entries(images, source.size, lanes).translate(
        bytes(phi_table(target)).ljust(256, b"\0")
    )
    if embedded != expected:
        suspects[1] = _differing(embedded, expected, lanes)
    # h_*^beta(nabla) lies in hat_phi(A) exactly when h_*^-1(A) is in nabla:
    # per point nabla, one byte row over A of each side, one run per lane
    rows = b"".join([h_star.preimages.translate(indicator) for indicator in beta2.indicators])
    want = b"".join(map(_diagram_side(source).bit_rows.__getitem__, lifted))
    if rows != want:
        suspects[2] = _differing(rows, want, lanes, size1)
    suspects[3] = _lawless_lanes(sigma, n1, n2, lanes)

    injective, surjective = _premises(images, source.size, target.size)
    values = list(map(set, [sigma[j::lanes] for j in every]))
    sigma_inj = list(map(size1.__eq__, map(len, values)))
    sigma_surj = list(map(set(range(size2)).__eq__, values))
    suspects[4] = list(compress(every, map(gt, injective, sigma_inj)))
    suspects[5] = list(compress(every, map(gt, surjective, sigma_surj)))
    iso_fails = []
    for j in compress(every, map(and_, injective, surjective)):
        iso_ok = sigma_inj[j] and sigma_surj[j]
        if iso_ok:
            inverse = sorted(range(size1), key=sigma[j::lanes].__getitem__)
            iso_ok = atom_additive(inverse, n2, n1)
        if not iso_ok:
            iso_fails.append(j)
    suspects[6] = iso_fails
    suspects[7] = list(compress(every, map((1).__ne__, diagram.candidate_counts)))
    moved = _gather(lifted, beta2.embed, lanes)
    embedded_images = h_star.table.translate(bytes(beta1.embed).ljust(256, b"\0"))
    if moved != embedded_images:
        suspects[8] = _differing(moved, embedded_images, lanes)
    if diagram.lift != lifted:
        suspects[9] = _differing(diagram.lift, lifted, lanes)
    # per point d, its member row over A lies within the row of whether the
    # forward image of A is in d's lifted point: byte (d, A, j) of ``held``
    # has a bit per point of beta1 whose ultrafilter holds the image, and
    # ``picked`` the bit of lane j's lifted point of d
    forward = _forward_images(h_star.table, lanes)
    held = int.from_bytes(forward.translate(beta1.holders) * n2, "little")
    ones = lifted.translate(_ONE_HOT)
    picked = b"".join([ones[d * lanes : d * lanes + lanes] * size2 for d in range(n2)])
    needed = b"".join(map((bytes(lanes), b"\xff" * lanes).__getitem__, beta2.member_rows))
    lost = int.from_bytes(picked, "little") & int.from_bytes(needed, "little") & ~held
    if lost:
        suspects[10] = _differing(lost.to_bytes(len(picked), "little"), bytes(len(picked)), lanes)

    verdicts: list = [None] * lanes
    named = set().union(*suspects)
    if named:
        suspects = list(map(set, suspects))
    for j in sorted(named):
        flagged = [j in named for named in suspects]
        table = tuple(sigma[j::lanes])
        hat_phi = _diagram_side(source).hat_phi
        witnesses = _lane_witnesses(diagram, j, table, forward[j::lanes], flagged, hat_phi)
        if flagged[0]:
            witnesses[0] = _sigma_mismatch(homs[j], table, double_dual[j::lanes])
        if witnesses.count(None) != len(BATTERY):
            verdicts[j] = list(map(_verdict, BATTERY, witnesses))
    return verdicts, (sum(injective), sum(surjective), sum(map(and_, injective, surjective)))


def _sigma_mismatch(h: BoolHom, sigma_table: tuple, double_dual: bytes) -> dict | None:
    """The first subset, fewest points first, where sigma and the double
    dual differ, with the failing instance shrunk; None when none does."""
    mismatch = _first(
        a
        for a in sorted(range(len(sigma_table)), key=lambda m: (bin(m).count("1"), m))
        if sigma_table[a] != double_dual[a]
    )
    if mismatch is None:
        return None

    def still_fails(candidate: BoolHom) -> bool:
        cb = build_diagram(candidate)
        ct = sigma_extend(candidate)
        return any(ct[m] != cb.double_dual[m] for m in range(len(ct)))

    return {
        "subset_mask": mismatch,
        "sigma": sigma_table[mismatch],
        "double_dual": double_dual[mismatch],
        "shrunk": shrink_failing_hom(h, still_fails),
    }


def full_hom_instance(
    h: BoolHom,
    name: str | None = None,
    extra: dict | None = None,
    atom_function: Sequence[int] | None = None,
) -> InstanceReport:
    """The per-homomorphism check battery used by the suite and CLI.

    ``atom_function`` is the one h was built from, if the caller has it.
    """
    (checks,), _ = _lane_checks(build_diagram(h), bytes(sigma_extend(h)))
    checks = list(_ALL_PASSED) if checks is None else checks
    descriptor = hom_descriptor(h, name, atom_function)
    if extra:
        descriptor.update(extra)
    return InstanceReport(descriptor, checks)


def algebra_instance(atom_count: int) -> InstanceReport:
    """Density, compactness, and representation checks for one algebra size."""
    algebra = powerset_algebra(atom_count)
    # canonical_extension raises InvariantViolation unless both verdicts pass
    canonical_extension(algebra)
    checks = [_passed("canonical_extension_dense"), _passed("canonical_extension_compact")]
    try:
        stone_representation(algebra)
        witness = None
    except InvariantViolation as exc:
        witness = {"error": str(exc)}
    checks.append(_verdict("representation_is_isomorphism", witness))
    descriptor = {"kind": "algebra", "atoms": atom_count}
    return InstanceReport(descriptor, checks)


class SuitePlan(FieldEquality):
    """Every instance of a suite run in report order (``suite_plan``).  A hom
    entry is (source atoms, atom function, sample index), the index None
    when exhaustive; no entry holds a hom.  ``premises`` counts, as the
    homs run, the distinct homs that are one-to-one, onto, and both."""

    _fields = ("homs", "algebra_sizes")
    __slots__ = (*_fields, "premises", "__weakref__")

    def __init__(self, homs: list[tuple], algebra_sizes: list[int]) -> None:
        self.homs = homs
        self.algebra_sizes = algebra_sizes
        self.premises = [0, 0, 0]

    def __len__(self) -> int:
        return len(self.homs) + len(self.algebra_sizes)

    def run(self) -> Iterator[tuple[InstanceReport, int | None]]:
        """Make each instance in order, a sampled draw with the sample index
        of its hom's first draw, an exhaustive hom with None.

        The distinct atom functions with one source and one target size are
        one block.  When a block's first hom comes up in report order, its
        homs are made in one ``homs_from_atom_functions`` call and its
        battery runs, one lane per hom; only each lane's verdicts are kept,
        until that hom's first draw is made, so at most one block's homs
        are alive at a time.  A block whose build or battery raises is run
        again one hom at a time, each when it comes up, so an error names
        its hom after the instances before it.  The draws of one atom
        function are adjacent in report order, so every later draw of a hom
        shares the ``checks`` of its first draw.  No instance is kept, and
        a hom's verdicts only until its atom function's draws end."""
        blocks: dict[tuple[int, int], dict[tuple[int, ...], None]] = {}
        for k1, g, _ in self.homs:
            blocks.setdefault((k1, len(g)), {})[g] = None
        # each hom's verdicts, by (k1, g), from its block's run until its
        # first draw: None when its checks all pass, False when its block
        # raised, else its list of results
        ran: dict[tuple, list | bool | None] = {}
        firsts: dict[int, tuple[int, dict, list[CheckResult]]] = {}
        atom_function = None
        for k1, g, i in self.homs:
            if i is not None:
                if g != atom_function:
                    firsts.clear()
                    atom_function = g
                first = firsts.get(k1)
                if first is not None:
                    yield InstanceReport(dict(first[1], sample_index=i), first[2]), first[0]
                    continue
            key = (k1, len(g))
            if key in blocks:
                functions = list(blocks.pop(key))
                verdicts = self._run_block(key, functions) or [False] * len(functions)
                ran.update(zip([(k1, f) for f in functions], verdicts))
            checks = ran.pop((k1, g))
            extra = None if i is None else {"sample_index": i}
            if checks is False:
                h = hom_from_atom_function(powerset_algebra(k1), powerset_algebra(len(g)), g)
                inst = full_hom_instance(h, extra=extra, atom_function=g)
                injective, surjective = _premises(bytes(h.table), h.source.size, h.target.size)
                self._count((injective[0], surjective[0], injective[0] and surjective[0]))
            else:
                descriptor = _descriptor_of(k1, g) | (extra or {})
                inst = InstanceReport(descriptor, checks or list(_ALL_PASSED))
            if i is not None:
                firsts[k1] = (i, inst.descriptor, inst.checks)
            yield inst, i
            # the consumer has dropped it: free it before the next battery runs
            del inst
        for k in self.algebra_sizes:
            yield algebra_instance(k), None

    def _run_block(self, key: tuple[int, int], functions: list[tuple[int, ...]]) -> list | None:
        """Each lane's verdicts of the block of homs between the powersets
        of ``key``'s atom counts that the functions induce, or None when the
        block raised."""
        try:
            homs = homs_from_atom_functions(*map(powerset_algebra, key), functions)
            verdicts, premises = _lane_checks(diagram_lanes(homs), sigma_lanes(homs))
        except Exception:
            return None
        self._count(premises)
        return verdicts

    def _count(self, premises: Sequence[int]) -> None:
        self.premises[:] = map(add, self.premises, premises)


def suite_plan(max_atoms: int, sample: tuple[int, int] | None = None) -> SuitePlan:
    """List every instance of the suite in report order, before any work.

    Exhaustive mode takes every atom function of ``range(k1) ** k2`` for
    1 <= k1, k2 <= ``max_atoms``, each inducing a hom between powerset
    algebras (``homs_from_atom_functions`` makes a block's homs when it
    runs, and asserts the duality count: distinct functions, distinct
    homs); sampled mode draws ``count`` atom functions from a seeded
    generator.  The order is that of the ``json.dumps(descriptor,
    sort_keys=True)`` texts, found without encoding one: hom texts begin
    ``{"atom_function": [``, before algebra texts' ``{"atoms": ``, and first
    differ in the atom function's text, or else in the decimal sample index
    (source size, when exhaustive), which a comma follows.  A range that
    checks nothing raises ValueError, one above ``MAX_ATOMS`` BoundExceeded."""
    if max_atoms < 1:
        raise ValueError("max_atoms must be at least 1")
    if sample is not None and sample[1] < 1:
        raise ValueError("sample count must be at least 1")
    if max_atoms > MAX_ATOMS:
        raise BoundExceeded(f"exhaustive suite capped at {MAX_ATOMS} atoms", max_atoms)
    sizes = range(1, max_atoms + 1)
    homs = []
    if sample is None:
        for k1, k2 in itertools.product(sizes, sizes):
            homs += [(k1, g, None) for g in itertools.product(range(k1), repeat=k2)]
        homs.sort(key=lambda e: (str(list(e[1])), str(e[0])))
    else:
        rng = random.Random(sample[0])
        for i in range(sample[1]):
            k1 = rng.randint(1, max_atoms)
            k2 = rng.randint(1, max_atoms)
            homs.append((k1, tuple(rng.randrange(k1) for _ in range(k2)), i))
        homs.sort(key=lambda e: (str(list(e[1])), str(e[2])))
    return SuitePlan(homs, sorted(sizes, key=str))


def exhaustive_suite(max_atoms: int, sample: tuple[int, int] | None = None) -> VerificationReport:
    """Run the full battery over all (or a seeded sample of) homomorphisms:
    the stream of ``suite_plan(max_atoms, sample).run()``, which the CLI
    writes as it goes, collected.  Each distinct hom gets every check once,
    and nothing outlives the call, so a patched fault is seen."""
    return VerificationReport([inst for inst, _ in suite_plan(max_atoms, sample).run()])
