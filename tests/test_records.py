"""The equality, hashing, weak references and constructors of every record.

Each record class of the package is listed with its constructor's
parameters (name and default, in order) and its equality kind:

- ``identity``: ``==`` is ``is`` and the hash is ``object.__hash__``;
- ``fields``: ``==`` compares the constructor's fields, all of them, of two
  records of the same class, and the hash is that of the tuple of them;
- ``unhashable``: ``==`` as for ``fields``, and ``hash`` raises TypeError.

A derived field or the ``_cache`` of a record is never compared.
"""

import inspect
import weakref
from pathlib import Path

import pytest

from stonecheck.algebra import hom_from_atom_function, powerset_algebra
from stonecheck.audit import audit_ownership
from stonecheck.compactification import build_compactification
from stonecheck.documents import parse_document
from stonecheck.duality import clopen_algebra
from stonecheck.extension import canonical_extension
from stonecheck.harness import build_diagram, exhaustive_suite, full_hom_instance, suite_plan

REQUIRED = inspect.Parameter.empty
FRESH = object()  # a new empty container for every record, as a default_factory gave

DOCUMENT = Path(__file__).parent / "data" / "relabelled_five.json"


def _records() -> dict:
    """One record of every class, made by the library, by class name."""
    source, target = powerset_algebra(2), powerset_algebra(1)
    hom = hom_from_atom_function(source, target, (1,))
    diagram = build_diagram(hom)
    completion = canonical_extension(source)
    beta = diagram.beta1
    compactification = build_compactification(beta.base, beta.space, beta.embed)
    report = full_hom_instance(hom)
    records = [
        source,
        source.lattice,
        source.lattice.poset,
        hom,
        diagram.beta1.points_as_ultrafilters[0],
        diagram.h_star,
        diagram.beta1.space,
        clopen_algebra(diagram.beta1.space),
        completion,
        compactification,
        diagram.beta1,
        diagram,
        report.checks[0],
        report,
        exhaustive_suite(1),
        suite_plan(1),
        parse_document(DOCUMENT.read_text()),
        audit_ownership(),
    ]
    return {type(r).__name__: r for r in records}


RECORDS = _records()

# class name -> (module, equality kind, [(parameter, default)])
CLASSES = {
    "FinPoset": ("algebra", "identity", [("up", REQUIRED), ("down", REQUIRED)]),
    "FinLattice": ("algebra", "identity", [
        ("poset", REQUIRED), ("meet", REQUIRED), ("join", REQUIRED),
        ("bottom", REQUIRED), ("top", REQUIRED),
    ]),
    "FinBoolAlg": ("algebra", "identity", [
        ("up", REQUIRED), ("complement", REQUIRED), ("atoms", REQUIRED),
        ("atom_mask", REQUIRED), ("_mask_index", REQUIRED),
    ]),
    "UltraFilter": ("algebra", "fields", [("algebra", REQUIRED), ("members", REQUIRED), ("atom", REQUIRED)]),
    "BoolHom": ("algebra", "fields", [("source", REQUIRED), ("target", REQUIRED), ("table", REQUIRED)]),
    "FinStoneSpace": ("duality", "identity", [("points", REQUIRED), ("base", REQUIRED)]),
    "ContinuousLanes": ("duality", "identity", [
        ("source", REQUIRED), ("target", REQUIRED), ("table", REQUIRED), ("preimages", REQUIRED),
        ("lanes", REQUIRED),
    ]),
    "ClopenAlgebra": ("duality", "identity", [("algebra", REQUIRED), ("clopen_masks", REQUIRED)]),
    "Completion": ("extension", "identity", [
        ("base", REQUIRED), ("complete", REQUIRED), ("embedding", REQUIRED),
    ]),
    "Compactification": ("compactification", "identity", [
        ("base", REQUIRED), ("space", REQUIRED), ("embed", REQUIRED),
    ]),
    "BetaSpace": ("compactification", "identity", [
        ("base", REQUIRED), ("space", REQUIRED), ("embed", REQUIRED),
        ("points_as_ultrafilters", REQUIRED),
    ]),
    "DiagramLanes": ("harness", "identity", [
        ("homs", REQUIRED), ("h_star", REQUIRED), ("beta1", REQUIRED), ("beta2", REQUIRED),
        ("h_star_beta", REQUIRED), ("double_dual", REQUIRED),
        ("candidate_counts", REQUIRED), ("lift", REQUIRED),
    ]),
    "CheckResult": ("harness", "fields", [("name", REQUIRED), ("witness", None)]),
    "InstanceReport": ("harness", "unhashable", [
        ("descriptor", REQUIRED), ("checks", REQUIRED),
    ]),
    "VerificationReport": ("harness", "unhashable", [("instances", FRESH)]),
    "SuitePlan": ("harness", "fields", [("homs", REQUIRED), ("algebra_sizes", REQUIRED)]),
    "Document": ("documents", "unhashable", [
        ("algebras", FRESH), ("labels", FRESH), ("label_index", FRESH),
        ("homs", FRESH), ("hom_endpoints", FRESH),
    ]),
    "AuditResult": ("audit", "fields", [
        ("sigma_reachable", REQUIRED), ("diagram_reachable", REQUIRED),
        ("shared", REQUIRED), ("violations", REQUIRED),
    ]),
}


def test_every_record_class_is_listed_and_made():
    assert set(RECORDS) == set(CLASSES)
    for name, record in RECORDS.items():
        assert type(record).__module__ == "stonecheck." + CLASSES[name][0]


def twin(record, **changes):
    """A second record of the same class, built from the same fields."""
    names = [p for p, _ in CLASSES[type(record).__name__][2]]
    return type(record)(**{p: changes.get(p, getattr(record, p)) for p in names})


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_the_constructor_takes_the_same_parameters_and_defaults(name):
    record = RECORDS[name]
    params = list(inspect.signature(type(record)).parameters.values())
    expected = CLASSES[name][2]
    assert [p.name for p in params] == [p for p, _ in expected]
    for param, (_, default) in zip(params, expected):
        if default is FRESH:
            assert param.default is not REQUIRED
        else:
            assert param.default == default and type(param.default) is type(default)
    fresh = [p for p, default in expected if default is FRESH]
    if fresh:
        required = {p: getattr(record, p) for p, default in expected if default is REQUIRED}
        first, second = type(record)(**required), type(record)(**required)
        for p in fresh:
            assert getattr(first, p) == type(getattr(record, p))()
            assert getattr(first, p) is not getattr(second, p)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_a_record_can_be_weakly_referenced(name):
    record = RECORDS[name]
    assert weakref.ref(record)() is record


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_equality_and_hash_are_as_listed(name):
    record = RECORDS[name]
    kind, params = CLASSES[name][1], CLASSES[name][2]
    other = twin(record)
    assert record == record
    assert record.__eq__(object()) is NotImplemented
    if kind == "identity":
        assert record != other
        assert hash(record) == object.__hash__(record)
        return
    assert record == other and not record != other
    marker = object()
    for p, _ in params:
        assert record != twin(record, **{p: marker})
    if hasattr(record, "_cache"):
        other._cache["marker"] = marker
        assert record == other
    if kind == "unhashable":
        with pytest.raises(TypeError):
            hash(record)
        return
    # SuitePlan hashes its lists field-wise, so its hash raises as the tuple's does
    key = tuple(getattr(record, p) for p, _ in params)
    assert hash_or_error(record) == hash_or_error(other) == hash_or_error(key)


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)
