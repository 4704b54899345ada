"""Builds the duality diagram for a homomorphism and verifies the extension laws.

Two independent computations sit at the heart of the verification: the
filter-formula extension (``extension.sigma_extend``) and the diagram chase
through the compactified ultrafilter spaces (``build_diagram`` /
``double_dual_map``).  The two paths share nothing beyond the algebra core
and the Stone embedding itself -- ``audit.py`` enforces that statically --
so their exhaustive agreement on every subset is genuine evidence rather
than a tautology.

``build_diagram`` only builds the diagram; one check battery
(``full_hom_instance``) judges it, so a diagram that disagrees with itself
or with the filter formula becomes a failed check with a witness.

Both work a table at a time.  Each arrow of the diagram reads the preimage
table of its point map, and each double-dual entry is a lookup in that
table and in the inverse of ``hat_phi_table``; ``build_diagram`` makes the
whole double-dual table before it makes the bundle.  The battery takes
forward images from one table per homomorphism (preimage and forward-image
tables are both built by the subset-union fold ``algebra._subset_unions``),
compares the homomorphism laws of the extension and the preimage
membership equivalence one byte row at a time, and scans pair by pair only
when a row differs, so each check still reports the first witness of the
literal scan.  A passing check is one shared ``CheckResult`` per name.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Sequence

from .algebra import (
    BoolHom,
    FinBoolAlg,
    _mask_ops,
    _subset_unions,
    all_homs,
    atom_function_of_hom,
    check_hom_cap,
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
from .errors import InvariantViolation, NoClopenPreimage
from .extension import canonical_extension, is_compact, is_dense, sigma_extend


@dataclass(frozen=True, eq=False)
class DiagramBundle:
    """Every arrow of the construction square for one homomorphism.

    ``candidate_count`` is the number of continuous extensions the search
    found and ``lift`` the ultrafilter-formula table, both kept so that the
    checks read them instead of recomputing them.
    """

    hom: BoolHom
    h_star: ContinuousMap
    beta1: BetaSpace
    beta2: BetaSpace
    h_star_beta: ContinuousMap
    double_dual: tuple[int, ...]
    candidate_count: int
    lift: tuple[int, ...]


@dataclass(frozen=True)
class CheckResult:
    name: str
    verdict: str  # "pass" | "fail"
    witness: dict | None = None

    def as_row(self) -> dict:
        """The check as report data: name and verdict, plus the witness if any."""
        row: dict = {"name": self.name, "verdict": self.verdict}
        if self.witness is not None:
            row["witness"] = self.witness
        return row


@dataclass
class InstanceReport:
    descriptor: dict
    checks: list[CheckResult]
    timing_ms: int = 0

    @property
    def passed(self) -> bool:
        return all(c.verdict == "pass" for c in self.checks)


@dataclass
class VerificationReport:
    instances: list[InstanceReport] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(inst.passed for inst in self.instances)

    def sort(self) -> None:
        self.instances.sort(key=lambda i: json.dumps(i.descriptor, sort_keys=True))


def report_jsonable(report: VerificationReport) -> list[dict]:
    """Instances as plain data.  timing_ms is serialized as 0 so that report
    files are byte-identical across runs; wall-clock values stay on the
    in-memory objects."""
    return [
        {
            "descriptor": inst.descriptor,
            "checks": [c.as_row() for c in inst.checks],
            "timing_ms": 0,
        }
        for inst in report.instances
    ]


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
    check_hom_cap("diagram construction", h.source.atom_count, h.target.atom_count)
    h_star = dual_map(h)
    ufs1 = ultrafilters(h.source)
    ufs2 = ultrafilters(h.target)
    beta1 = beta_space(tuple(ufs1))
    beta2 = beta_space(tuple(ufs2))
    composed = tuple(beta1.embed[v] for v in h_star.table)
    candidates = extension_candidates(beta2, composed, beta1.space)
    via_extension = sole_extension(beta2, beta1.space, candidates)
    via_formula = beta_lift(h_star.table, beta2, beta1)
    double_dual = _double_dual_entries(h, via_extension, range(1 << len(ufs1)))
    return DiagramBundle(
        h, h_star, beta1, beta2, via_extension, double_dual, len(candidates), via_formula.table
    )


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
    is taken, repeatedly, so the reported witness is locally minimal.
    """
    current = tuple(atom_function_of_hom(h))
    improved = True
    while improved:
        improved = False
        for drop in range(len(current)):
            sub = current[:drop] + current[drop + 1 :]
            if not sub:
                continue
            used = sorted(set(sub))
            remapped = tuple(used.index(p) for p in sub)
            candidate = hom_from_atom_function(
                powerset_algebra(len(used)), powerset_algebra(len(sub)), remapped
            )
            if fails(candidate):
                current = remapped
                improved = True
                break
    used = sorted(set(current)) or [0]
    return {
        "source_atoms": len(used),
        "target_atoms": len(current),
        "atom_function": list(current),
    }


@cache
def _passed(name: str) -> CheckResult:
    """The passing result of a check, one shared frozen object per name."""
    return CheckResult(name, "pass")


def _verdict(name: str, witness: dict | None) -> CheckResult:
    """A check that passes exactly when it found no witness."""
    return _passed(name) if witness is None else CheckResult(name, "fail", witness)


def _first(witnesses):
    """The first witness of a scan, or None when the scan finds none."""
    return next(iter(witnesses), None)


def _hom_checks(h: BoolHom, bundle: DiagramBundle, sigma_table) -> list[CheckResult]:
    """The per-homomorphism battery: the main theorem, its corollary, and
    the compactification facts the diagram rests on."""
    n1 = len(ultrafilters(h.source))
    n2 = len(ultrafilters(h.target))
    full2 = (1 << n2) - 1
    double_dual = bundle.double_dual
    h_star, h_star_beta, beta1, beta2 = (
        bundle.h_star, bundle.h_star_beta, bundle.beta1, bundle.beta2
    )
    members1 = [u.members for u in beta1.points_as_ultrafilters]
    members2 = [u.members for u in beta2.points_as_ultrafilters]

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
            ct = sigma_extend(candidate).table
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
    preimages = bytes(h_star.preimages)
    bit_rows = _hat_phi_bit_rows(h.source)
    remark = None
    if any(
        preimages.translate(nabla.indicator) != bit_rows[img]
        for nabla, img in zip(beta2.points_as_ultrafilters, h_star_beta.table)
    ):
        remark = _first(
            {"subset_mask": a, "point": d}
            for a, upstairs in enumerate(hat_phi_table(h.source))
            for d, img in enumerate(h_star_beta.table)
            if bool(upstairs >> img & 1) != (h_star.preimages[a] in members2[d])
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
        iso_ok = all(
            inverse[x & y] == inverse[x] & inverse[y]
            for x in range(full2 + 1)
            for y in range(full2 + 1)
        )

    def unless(law_holds: bool) -> dict | None:
        return None if law_holds else {"table": list(sigma_table)}

    square = _first(
        {"point": v}
        for v in range(beta2.base.size)
        if h_star_beta.table[beta2.embed[v]] != beta1.embed[h_star.table[v]]
    )
    images = _forward_images(h_star.table)
    lemma = _first(
        {"point": d, "member_mask": a}
        for d, members in enumerate(members2)
        for a in members
        if images[a] not in members1[h_star_beta.table[d]]
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
            if bundle.lift == h_star_beta.table
            else {"lift": list(bundle.lift), "extension": list(h_star_beta.table)},
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

    Bounds first; then for each a in turn the meet and the join with every
    b, then the complement of a.  Row a is compared as two byte rows per
    operation, ``sigma(a op b)`` by translating the index row through the
    table and ``sigma(a) op sigma(b)`` by translating the table through row
    ``sigma(a)``; only a row that differs, or one with an entry outside the
    target, is scanned pair by pair for its first witness.
    """
    size1, full2 = 1 << n1, (1 << n2) - 1
    full1 = size1 - 1
    if sigma_table[0] != 0 or sigma_table[full1] != full2:
        return {"law": "bounds"}
    if 0 <= min(sigma_table) and max(sigma_table) <= full2:
        image = bytes(sigma_table)
        table = image.ljust(256, b"\0")
        ands1, ors1 = _mask_ops(n1)
        ands2, ors2 = _mask_ops(n2)
        rows = (
            a
            for a, s in enumerate(sigma_table)
            if ands1[a][:size1].translate(table) != image.translate(ands2[s])
            or ors1[a][:size1].translate(table) != image.translate(ors2[s])
            or sigma_table[full1 ^ a] != full2 ^ s
        )
    else:
        rows = range(size1)
    for a in rows:
        s = sigma_table[a]
        for b in range(size1):
            if sigma_table[a & b] != s & sigma_table[b]:
                return {"law": "meet", "pair": [a, b]}
            if sigma_table[a | b] != s | sigma_table[b]:
                return {"law": "join", "pair": [a, b]}
        if sigma_table[full1 ^ a] != full2 ^ s:
            return {"law": "complement", "element": a}
    return None


def full_hom_instance(
    h: BoolHom,
    name: str | None = None,
    extra: dict | None = None,
    atom_function: Sequence[int] | None = None,
) -> InstanceReport:
    """The per-homomorphism check battery used by the suite and CLI.

    ``atom_function`` is the one h was built from, if the caller has it.
    """
    start = time.perf_counter()
    bundle = build_diagram(h)
    sigma = sigma_extend(h)
    checks = _hom_checks(h, bundle, sigma.table)
    descriptor = hom_descriptor(h, name, atom_function)
    if extra:
        descriptor.update(extra)
    return InstanceReport(descriptor, checks, int((time.perf_counter() - start) * 1000))


def algebra_instance(atom_count: int) -> InstanceReport:
    """Density, compactness, and representation checks for one algebra size."""
    start = time.perf_counter()
    algebra = powerset_algebra(atom_count)
    ext = canonical_extension(algebra)
    checks = [
        CheckResult(
            "canonical_extension_dense",
            "pass" if is_dense(ext.completion).passed else "fail",
        ),
        CheckResult(
            "canonical_extension_compact",
            "pass" if is_compact(ext.completion).passed else "fail",
        ),
    ]
    try:
        stone_representation(algebra)
        checks.append(CheckResult("representation_is_isomorphism", "pass"))
    except InvariantViolation as exc:
        checks.append(
            CheckResult("representation_is_isomorphism", "fail", {"error": str(exc)})
        )
    descriptor = {"kind": "algebra", "atoms": atom_count}
    return InstanceReport(descriptor, checks, int((time.perf_counter() - start) * 1000))


def exhaustive_suite(
    max_atoms: int, sample: tuple[int, int] | None = None
) -> VerificationReport:
    """Run the full battery over all (or a seeded sample of) homomorphisms.

    Exhaustive mode iterates every pair of powerset algebras with at most
    ``max_atoms`` atoms and every homomorphism between them; sampled mode
    draws ``count`` atom functions from a seeded generator.  Output is
    deterministic given the same arguments.

    A sampled draw that repeats an earlier one (same source size and atom
    function) reuses the verdicts of its first draw: its instance shares
    that draw's ``checks`` list and copies its descriptor, with its own
    ``sample_index`` and ``timing_ms`` 0.  The battery is a function of the
    homomorphism alone, so every distinct homomorphism still gets every
    check.  The memo is local to the call, so a patched fault is seen and
    nothing outlives the run.  A range that checks nothing (``max_atoms`` or
    ``count`` below 1) raises ValueError and one above the hom cap
    BoundExceeded, both before any work.
    """
    if max_atoms < 1:
        raise ValueError("max_atoms must be at least 1")
    if sample is not None and sample[1] < 1:
        raise ValueError("sample count must be at least 1")
    check_hom_cap("exhaustive suite", max_atoms)
    report = VerificationReport()
    for k in range(1, max_atoms + 1):
        report.instances.append(algebra_instance(k))
    if sample is None:
        for k1 in range(1, max_atoms + 1):
            for k2 in range(1, max_atoms + 1):
                # all_homs lists the homs in the order of their atom functions
                homs = all_homs(powerset_algebra(k1), powerset_algebra(k2))
                for g, h in zip(itertools.product(range(k1), repeat=k2), homs):
                    report.instances.append(full_hom_instance(h, atom_function=g))
    else:
        seed, count = sample
        rng = random.Random(seed)
        first_draws: dict[tuple[int, tuple[int, ...]], InstanceReport] = {}
        for i in range(count):
            k1 = rng.randint(1, max_atoms)
            k2 = rng.randint(1, max_atoms)
            g = tuple(rng.randrange(k1) for _ in range(k2))
            first = first_draws.get((k1, g))
            if first is None:
                h = hom_from_atom_function(powerset_algebra(k1), powerset_algebra(k2), g)
                instance = first_draws[k1, g] = full_hom_instance(
                    h, extra={"sample_index": i}, atom_function=g
                )
            else:
                instance = InstanceReport(dict(first.descriptor, sample_index=i), first.checks)
            report.instances.append(instance)
    report.sort()
    return report
