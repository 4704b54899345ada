"""Builds the duality diagram for a homomorphism and verifies the extension laws.

Two independent computations sit at the heart of the verification: the
filter-formula extension (``extension.sigma_extend``) and the diagram chase
through the compactified ultrafilter spaces (``build_diagram`` /
``double_dual_map``).  The two paths share nothing beyond the ultrafilters
of an algebra and two error types -- ``audit.py`` enforces that statically
against an explicit list -- so their exhaustive agreement on every subset
is genuine evidence rather than a tautology.

``build_diagram`` only builds the diagram; one check battery
(``full_hom_instance``) judges it, so a diagram that disagrees with itself
or with the filter formula becomes a failed check with a witness, and so
does an extension search that finds more than one table (the diagram goes
on with the first).

Both work a table at a time.  Each arrow of the diagram reads the one
preimage table of its point map, built and tested for continuity once per
arrow, and each double-dual entry is a lookup in that table and in the
inverse of ``hat_phi_table``; each algebra keeps its compactification
(``_beta_of``), whose base, space, embedding and point indicators are
plain fields that the battery reads directly.  The battery takes
forward images from one table per homomorphism (preimage and forward-image
tables are both built by the subset-union fold ``algebra._subset_unions``).
It tests the extension's homomorphism laws, and for a bijective
extension those of its inverse, at once by atom additivity
(``algebra.atom_additive``: the table is the union of its atom images,
which partition the target), and the preimage membership equivalence and
the forward-image lemma as byte rows, one per point.  Only when a test fails
does a plain scan run, in index order, so each check reports the first
witness of the literal scan.  A passing check is one shared
``CheckResult`` per name.
"""

from __future__ import annotations

import itertools
import random
from functools import cache
from typing import Callable, Iterator, Sequence

from .algebra import (
    MAX_ATOMS,
    BoolHom,
    FieldEquality,
    FinBoolAlg,
    _subset_unions,
    all_homs,
    atom_additive,
    atom_function_of_hom,
    hom_from_atom_function,
    object_cache,
    powerset_algebra,
    ultrafilters,
)
from .compactification import (
    BetaSpace,
    beta_lift,
    beta_space,
    extension_candidates,
    sole_extension,
)
from .duality import (
    ContinuousMap,
    _hat_phi_fibres,
    dual_map,
    hat_phi_table,
    phi_table,
    stone_representation,
)
from .errors import BoundExceeded, InvariantViolation, NoClopenPreimage
from .extension import canonical_extension, sigma_extend


class DiagramBundle:
    """Every arrow of the construction square for one homomorphism.

    ``candidate_count`` is the number of continuous extensions the search
    found and ``lift`` the ultrafilter-formula table, both kept so that the
    checks read them instead of recomputing them.
    """

    __slots__ = (
        "hom", "h_star", "beta1", "beta2", "h_star_beta",
        "double_dual", "candidate_count", "lift", "__weakref__",
    )

    def __init__(
        self,
        hom: BoolHom,
        h_star: ContinuousMap,
        beta1: BetaSpace,
        beta2: BetaSpace,
        h_star_beta: ContinuousMap,
        double_dual: tuple[int, ...],
        candidate_count: int,
        lift: tuple[int, ...],
    ) -> None:
        self.hom = hom
        self.h_star = h_star
        self.beta1 = beta1
        self.beta2 = beta2
        self.h_star_beta = h_star_beta
        self.double_dual = double_dual
        self.candidate_count = candidate_count
        self.lift = lift


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
    d = {
        "kind": "hom",
        "source_atoms": h.source.atom_count,
        "target_atoms": h.target.atom_count,
        "atom_function": list(atom_function),
    }
    if name is not None:
        d["name"] = name
    return d


def build_diagram(h: BoolHom) -> DiagramBundle:
    """Construct every arrow of the square, without judging it.

    The compactified map is computed twice -- once as the certified unique
    continuous extension, once by the ultrafilter lift formula.  Whether the
    two tables agree and whether the square commutes is decided by the
    battery's ``lift_paths_agree`` and ``extension_square_commutes`` checks.
    """
    h_star = dual_map(h)
    beta1, beta2 = _beta_of(h.source), _beta_of(h.target)
    embed1 = beta1.embed
    composed = tuple([embed1[v] for v in h_star.table])
    candidates = extension_candidates(beta2, composed, beta1.space)
    via_extension = sole_extension(candidates)
    via_formula = beta_lift(h_star, beta2, beta1)
    double_dual = _double_dual_entries(h, via_extension, range(1 << beta1.base.size))
    return DiagramBundle(
        h, h_star, beta1, beta2, via_extension, double_dual, len(candidates), via_formula.table
    )


@object_cache
def _beta_of(algebra: FinBoolAlg) -> BetaSpace:
    """The compactification of the algebra's ultrafilters, once per algebra."""
    return beta_space(ultrafilters(algebra))


def double_dual_map(bundle: DiagramBundle, subset_mask: int) -> int:
    """The dual of the compactified map at one subset, by its defining
    preimage equation (see ``_double_dual_entries``)."""
    return _double_dual_entries(bundle.hom, bundle.h_star_beta, (subset_mask,))[0]


def _double_dual_entries(
    h: BoolHom, h_star_beta: ContinuousMap, subset_masks: Sequence[int]
) -> tuple[int, ...]:
    """The dual of the compactified map at each of the given subsets.

    Embeds each subset into the double dual, pulls it back through the
    compactified map (its preimage table), and looks up the target subsets
    whose embedding equals that preimage (the inverse of ``hat_phi_table``).
    Duality guarantees exactly one: a miss raises NoClopenPreimage and
    several raise InvariantViolation, both library-bug signals, at the
    first subset in the given order that has them.
    """
    upstairs = hat_phi_table(h.source)
    pre = h_star_beta.preimages
    fibres = _hat_phi_fibres(hat_phi_table(h.target))
    table = []
    for a in subset_masks:
        matches = fibres.get(pre[upstairs[a]], ())
        if len(matches) != 1:
            if not matches:
                raise NoClopenPreimage("preimage is not the embedding of any subset", a)
            raise InvariantViolation("double-dual image is not unique", a)
        table.append(matches[0])
    return tuple(table)


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


@cache
def _passed(name: str) -> CheckResult:
    """The passing result of a check, one shared object per name (no code
    assigns a field of a record after its ``__init__``)."""
    return CheckResult(name)


def _verdict(name: str, witness: dict | None) -> CheckResult:
    """A check that passes exactly when it found no witness."""
    return _passed(name) if witness is None else CheckResult(name, witness)


def _first(witnesses):
    """The first witness of a scan, or None when the scan finds none."""
    return next(iter(witnesses), None)


def _hom_checks(h: BoolHom, bundle: DiagramBundle, sigma_table) -> list[CheckResult]:
    """The per-homomorphism battery: the main theorem, its corollary, and
    the compactification facts the diagram rests on."""
    double_dual = bundle.double_dual
    h_star, h_star_beta, beta1, beta2 = (
        bundle.h_star, bundle.h_star_beta, bundle.beta1, bundle.beta2
    )
    n1, n2 = beta1.base.size, beta2.base.size
    full2 = (1 << n2) - 1
    points1, points2 = beta1.points_as_ultrafilters, beta2.points_as_ultrafilters
    indicators1, indicators2 = beta1.indicators, beta2.indicators
    lifted = h_star_beta.table

    mismatch = None
    if sigma_table != double_dual:
        mismatch = _first(
            a
            for a in sorted(range(1 << n1), key=lambda m: (bin(m).count("1"), m))
            if sigma_table[a] != double_dual[a]
        )
    sigma_witness = None
    if mismatch is not None:

        def still_fails(candidate: BoolHom) -> bool:
            cb = build_diagram(candidate)
            ct = sigma_extend(candidate)
            return any(ct[m] != cb.double_dual[m] for m in range(len(ct)))

        sigma_witness = {
            "subset_mask": mismatch,
            "sigma": sigma_table[mismatch],
            "double_dual": double_dual[mismatch],
            "shrunk": shrink_failing_hom(h, still_fails),
        }

    phi1, phi2 = phi_table(h.source), phi_table(h.target)
    element = _first(
        {"element": a}
        for a in range(h.source.size)
        if double_dual[phi1[a]] != phi2[h.table[a]]
    )
    # h_*^beta(nabla) lies in hat_phi(A) exactly when h_*^-1(A) is in nabla:
    # per point nabla, one byte row over A of each side
    preimages = h_star.preimages
    pre_row = bytes(preimages)
    bit_rows = _hat_phi_bit_rows(h.source)
    remark = None
    if any(
        pre_row.translate(indicator) != bit_rows[img]
        for indicator, img in zip(indicators2, lifted)
    ):
        remark = _first(
            {"subset_mask": a, "point": d}
            for a, upstairs in enumerate(hat_phi_table(h.source))
            for d, img in enumerate(lifted)
            if upstairs >> img & 1 != points2[d].members >> preimages[a] & 1
        )
    hom_law = _hom_law_witness(sigma_table, n1, n2)

    h_inj, h_surj = h.is_injective, h.is_surjective
    sigma_inj = len(set(sigma_table)) == len(sigma_table)
    sigma_surj = set(sigma_table) == set(range(full2 + 1))
    iso_ok = sigma_inj and sigma_surj
    if iso_ok:
        inverse = [0] * (full2 + 1)
        for a, b in enumerate(sigma_table):
            inverse[b] = a
        iso_ok = atom_additive(inverse, n2, n1)

    def unless(law_holds: bool) -> dict | None:
        return None if law_holds else {"table": list(sigma_table)}

    square = _first(
        {"point": v}
        for v in range(n2)
        if lifted[beta2.embed[v]] != beta1.embed[h_star.table[v]]
    )
    # per point d, its membership row over A lies within the row of whether
    # the forward image of A is in d's lifted point: all points as one integer
    images = _forward_images(h_star.table)
    image_row, size2 = bytes(images), 1 << n2
    members = b"".join([indicator[:size2] for indicator in indicators2])
    covered = b"".join([image_row.translate(indicators1[img]) for img in lifted])
    lemma = None
    if int.from_bytes(members, "big") & ~int.from_bytes(covered, "big"):
        lemma = _first(
            {"point": d, "member_mask": a}
            for d, nabla in enumerate(points2)
            for a in range(size2)
            if nabla.members >> a & 1 and not points1[lifted[d]].members >> images[a] & 1
        )

    return [
        _verdict("sigma_equals_double_dual", sigma_witness),
        _verdict("embedded_elements_preserved", element),
        _verdict("preimage_membership_equivalence", remark),
        _verdict("sigma_is_boolean_hom", hom_law),
        _verdict("sigma_injective_when_injective", unless(not h_inj or sigma_inj)),
        _verdict("sigma_surjective_when_surjective", unless(not h_surj or sigma_surj)),
        _verdict(
            "sigma_isomorphism_when_isomorphism", unless(not (h_inj and h_surj) or iso_ok)
        ),
        _verdict(
            "unique_continuous_extension",
            None if bundle.candidate_count == 1 else {"candidates": bundle.candidate_count},
        ),
        _verdict("extension_square_commutes", square),
        _verdict(
            "lift_paths_agree",
            None
            if bundle.lift == lifted
            else {"lift": list(bundle.lift), "extension": list(lifted)},
        ),
        _verdict("forward_image_in_lifted_ultrafilter", lemma),
    ]


@object_cache
def _hat_phi_bit_rows(algebra: FinBoolAlg) -> tuple[bytes, ...]:
    """Row d, byte A is 1 when the double-dual point d lies in hat_phi(A)."""
    table = hat_phi_table(algebra)
    return tuple(
        bytes(upstairs >> point & 1 for upstairs in table)
        for point in range(len(ultrafilters(algebra)))
    )


def _forward_images(table: tuple[int, ...]) -> list[int]:
    """The image of every point set (bitmask) under a point table, indexed
    by the set."""
    return _subset_unions([1 << v for v in table])


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


def full_hom_instance(
    h: BoolHom,
    name: str | None = None,
    extra: dict | None = None,
    atom_function: Sequence[int] | None = None,
) -> InstanceReport:
    """The per-homomorphism check battery used by the suite and CLI.

    ``atom_function`` is the one h was built from, if the caller has it.
    """
    checks = _hom_checks(h, build_diagram(h), sigma_extend(h))
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
    entry is (source atoms, atom function, hom, None) when exhaustive and
    (source atoms, atom function, None, sample index) when sampled."""

    _fields = ("homs", "algebra_sizes")
    __slots__ = (*_fields, "__weakref__")

    def __init__(self, homs: list[tuple], algebra_sizes: list[int]) -> None:
        self.homs = homs
        self.algebra_sizes = algebra_sizes

    def __len__(self) -> int:
        return len(self.homs) + len(self.algebra_sizes)

    def run(self) -> Iterator[tuple[InstanceReport, int | None]]:
        """Make each instance in order, a sampled draw with the sample index
        of its hom's first draw, an exhaustive hom with None.  The draws of
        one atom function are adjacent in report order, so the battery runs
        once per source size while they last: every later draw of a hom
        shares the ``checks`` of its first draw.  No instance is kept, and
        a hom's verdicts only until its atom function's draws end."""
        firsts: dict[int, tuple[int, dict, list[CheckResult]]] = {}
        atom_function = None
        for k1, g, h, i in self.homs:
            if i is None:
                yield full_hom_instance(h, atom_function=g), None
                continue
            if g != atom_function:
                firsts.clear()
                atom_function = g
            first = firsts.get(k1)
            if first is None:
                h = hom_from_atom_function(powerset_algebra(k1), powerset_algebra(len(g)), g)
                inst = full_hom_instance(h, extra={"sample_index": i}, atom_function=g)
                first = firsts[k1] = (i, inst.descriptor, inst.checks)
            else:
                inst = InstanceReport(dict(first[1], sample_index=i), first[2])
            yield inst, first[0]
            # the consumer has dropped it: free it before the next battery runs
            del inst
        for k in self.algebra_sizes:
            yield algebra_instance(k), None


def suite_plan(max_atoms: int, sample: tuple[int, int] | None = None) -> SuitePlan:
    """List every instance of the suite in report order, before any work.

    Exhaustive mode takes every hom between powerset algebras of at most
    ``max_atoms`` atoms (``all_homs``, which asserts each pair's duality
    count); sampled mode draws ``count`` atom functions from a seeded
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
            # all_homs lists the homs in the order of their atom functions
            functions = itertools.product(range(k1), repeat=k2)
            pairs = zip(functions, all_homs(powerset_algebra(k1), powerset_algebra(k2)))
            homs += [(k1, g, h, None) for g, h in pairs]
        homs.sort(key=lambda e: (str(list(e[1])), str(e[0])))
    else:
        rng = random.Random(sample[0])
        for i in range(sample[1]):
            k1 = rng.randint(1, max_atoms)
            k2 = rng.randint(1, max_atoms)
            homs.append((k1, tuple(rng.randrange(k1) for _ in range(k2)), None, i))
        homs.sort(key=lambda e: (str(list(e[1])), str(e[3])))
    return SuitePlan(homs, sorted(sizes, key=str))


def exhaustive_suite(max_atoms: int, sample: tuple[int, int] | None = None) -> VerificationReport:
    """Run the full battery over all (or a seeded sample of) homomorphisms:
    the stream of ``suite_plan(max_atoms, sample).run()``, which the CLI
    writes as it goes, collected.  Each distinct hom gets every check once,
    and nothing outlives the call, so a patched fault is seen."""
    return VerificationReport([inst for inst, _ in suite_plan(max_atoms, sample).run()])
