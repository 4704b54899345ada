"""JSON documents defining named algebras and homomorphisms.

Schema (top level ``{"algebras": [...], "homs": [...]}``):

* algebra entries -- ``{"name": N, "powerset": n}`` for the 2**n-element
  powerset algebra, ``{"name": N, "carrier": [labels], "leq": [[a, b], ...],
  "complement": [[a, b], ...]}`` for an abstract presentation, or
  ``{"name": N, "ref": M}`` aliasing an earlier entry.  The ``leq`` pairs of
  an abstract entry are closed reflexively and transitively before
  validation, so listing the covering pairs is enough; antisymmetry (no
  cycles) is still checked.
* hom entries -- ``{"name": N, "source": A, "target": B, "map": [[a, b],
  ...]}`` with one pair per source element, or ``{"name": N, "source": A,
  "target": B, "atom_map": [[p, q], ...]}`` where each pair sends a target
  atom p to a source atom q, both written as the labels of those atom
  elements (the dual description; it expands to the induced homomorphism
  table).

Powerset algebras label their elements as sorted atom-index sets, e.g.
"{}", "{0}", "{0,2}"; their atoms are thus "{0}", "{1}", ...

A validator's error becomes a ``ValidationError`` naming the entry, except
a ``LibraryBug``, which passes through unchanged: it signals a bug in this
package, not a bad document.

Every command parses and validates the whole document again.  To keep that
cheap, the label pairs of a ``leq`` or ``complement`` list are resolved in
one pass, and a ``map`` or ``atom_map`` list in one ``dict(pairs)`` and one
lookup per source label, through the label index the document keeps for
each algebra (``Document.label_index``); the pair-by-pair checks run only
when that pass fails, to name the first bad pair.  The closure of the
``leq`` pairs stays as up-set bitmasks (``_closed_relation``), which go to
``algebra.boolean_algebra_of_up_sets`` as they are, with no pair list or
boolean matrix in between.  It recognises a valid algebra by its atom
encoding and tests the complement laws on the atom masks; the order and
lattice scans run only on an invalid one, to name its witness.  A valid
algebra's order, meet and join tables (``FinBoolAlg.lattice``) are built
when a command first reads them, so a command pays for the tables of the
algebras it uses, not for those of every algebra in the document.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, TypeVar

from .algebra import (
    MAX_ATOMS,
    BoolHom,
    FieldEquality,
    FinBoolAlg,
    boolean_algebra_of_up_sets,
    hom_from_atom_function,
    powerset_algebra,
    validate_hom,
)
from .errors import LibraryBug, ParseError, StonecheckError, UnknownName, ValidationError

T = TypeVar("T")


class Document(FieldEquality):
    """A parsed document: its algebras and homs by name, in document order,
    with each algebra's labels and label index and each hom's endpoints.
    ``parse_document`` fills the empty containers an entry at a time."""

    _fields = ("algebras", "labels", "label_index", "homs", "hom_endpoints")
    __slots__ = (*_fields, "__weakref__")
    __hash__ = None

    def __init__(
        self,
        algebras: dict[str, FinBoolAlg] | None = None,
        labels: dict[str, tuple[str, ...]] | None = None,
        label_index: dict[str, dict[str, int]] | None = None,
        homs: dict[str, BoolHom] | None = None,
        hom_endpoints: dict[str, tuple[str, str]] | None = None,
    ) -> None:
        self.algebras = {} if algebras is None else algebras
        self.labels = {} if labels is None else labels
        self.label_index = {} if label_index is None else label_index
        self.homs = {} if homs is None else homs
        self.hom_endpoints = {} if hom_endpoints is None else hom_endpoints

    def algebra(self, name: str) -> FinBoolAlg:
        if name not in self.algebras:
            raise UnknownName(f"algebra {name!r} is not defined")
        return self.algebras[name]

    def hom(self, name: str) -> BoolHom:
        if name not in self.homs:
            raise UnknownName(f"homomorphism {name!r} is not defined")
        return self.homs[name]


def powerset_labels(n: int) -> tuple[str, ...]:
    out = []
    for mask in range(1 << n):
        inside = ",".join(str(i) for i in range(n) if mask >> i & 1)
        out.append("{" + inside + "}")
    return tuple(out)


def _closed_relation(size: int, pairs: list[tuple[int, int]]) -> list[int]:
    """The reflexive-transitive closure of the pairs as up-set bitmasks.

    Row i is the bitmask of the elements i relates to; Warshall's closure
    ORs row k into every row that contains k.  The rows go to
    ``boolean_algebra_of_up_sets`` as they are.
    """
    rows = [1 << i for i in range(size)]
    for i, j in pairs:
        rows[i] |= 1 << j
    for k in range(size):
        row_k, bit = rows[k], 1 << k
        for i in range(size):
            if rows[i] & bit:
                rows[i] |= row_k
    return rows


def _parse_algebra(entry: dict, where: str, doc: Document) -> None:
    if not isinstance(entry, dict) or "name" not in entry:
        raise ParseError(f"{where}: algebra entry must be an object with a name")
    name = entry["name"]
    if not isinstance(name, str) or not name:
        raise ParseError(f"{where}: algebra name must be a nonempty string")
    if name in doc.algebras:
        raise ValidationError(f"{where}: duplicate algebra name {name!r}")

    if "ref" in entry:
        ref = entry["ref"]
        if not isinstance(ref, str):
            raise ParseError(f"{where}: ref must be an algebra name")
        if ref not in doc.algebras:
            raise ValidationError(f"{where}: ref {ref!r} is not defined yet")
        doc.algebras[name] = doc.algebras[ref]
        doc.labels[name] = doc.labels[ref]
        doc.label_index[name] = doc.label_index[ref]
    elif "powerset" in entry:
        n = entry["powerset"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ParseError(f"{where}: powerset must be a nonnegative integer")
        doc.algebras[name] = _validated(where, lambda: powerset_algebra(n))
        doc.labels[name] = labels = powerset_labels(n)
        doc.label_index[name] = {label: i for i, label in enumerate(labels)}
    elif "carrier" in entry:
        carrier = entry.get("carrier")
        if not isinstance(carrier, list) or not all(isinstance(x, str) for x in carrier):
            raise ParseError(f"{where}: carrier must be a list of labels")
        if not carrier:
            raise ValidationError(f"{where}: carrier must be nonempty")
        if len(carrier) > 1 << MAX_ATOMS:
            raise ValidationError(
                f"{where}: carrier of {len(carrier)} elements exceeds the cap of "
                f"{1 << MAX_ATOMS} ({MAX_ATOMS} atoms)"
            )
        if len(set(carrier)) != len(carrier):
            raise ValidationError(f"{where}: carrier labels must be unique")
        index = {label: i for i, label in enumerate(carrier)}
        for key in ("leq", "complement"):
            if not isinstance(entry.get(key, []), list):
                raise ParseError(f"{where}: {key} must be a list of label pairs")
        leq_pairs, comp_pairs = (
            list(_resolved_pairs(entry.get(key, []), index, index, where, key))
            for key in ("leq", "complement")
        )
        comp_table = [-1] * len(carrier)
        for i, j in comp_pairs:
            if comp_table[i] != -1:
                raise ValidationError(f"{where}: element {carrier[i]!r} has two complements")
            comp_table[i] = j
        if -1 in comp_table:
            missing = carrier[comp_table.index(-1)]
            raise ValidationError(f"{where}: element {missing!r} has no complement")
        up = _closed_relation(len(carrier), leq_pairs)
        doc.algebras[name] = _validated(
            where, lambda: boolean_algebra_of_up_sets(up, comp_table)
        )
        doc.labels[name] = tuple(carrier)
        doc.label_index[name] = index
    else:
        raise ParseError(f"{where}: algebra needs 'powerset', 'carrier', or 'ref'")


def _validated(where: str, build: Callable[[], T]) -> T:
    """``build()``, with a validator's error turned into a ValidationError
    naming the entry; a LibraryBug passes through unchanged."""
    try:
        return build()
    except LibraryBug:
        raise
    except StonecheckError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _resolved_pairs(pairs: list, left: dict, right: dict, where: str, key: str):
    """The (left, right) label indices of every pair, resolved in one pass.

    When some pair is bad, the result is instead an iterator that resolves
    the pairs one at a time and raises the error naming the first bad one
    (``_resolve_pair``), so a caller that checks each pair as it comes
    still meets the errors in pair order.
    """
    try:
        out = [(left[p[0]], right[p[1]]) for p in pairs if type(p) is list and len(p) == 2]
        if len(out) == len(pairs):
            return out
    except (KeyError, TypeError):
        pass
    return (_resolve_pair(p, left, right, where, key) for p in pairs)


def _resolve_pair(pair, left: dict, right: dict, where: str, key: str, unknown: str | None = None):
    """The indices of one pair, or the error that names it.

    A pair that is not a list of two items is a ParseError; so is one with
    an unknown label, unless ``unknown`` words a ValidationError for it.
    """
    if type(pair) is list and len(pair) == 2:
        a, b = pair
        if isinstance(a, str) and isinstance(b, str) and a in left and b in right:
            return left[a], right[b]
        if unknown is not None:
            raise ValidationError(f"{where}: {unknown} in pair {pair!r}")
    raise ParseError(f"{where}: bad {key} pair {pair!r}")


def _pair_table(pairs, left: dict, right: dict, where: str, key: str) -> list[int]:
    """Entry i is the right index that ``pairs`` gives the i-th left label,
    the labels of ``left`` taken in order.

    A list of two-item lists with one pair per left label and only known
    labels is read in one pass: ``dict(pairs)``, then one lookup per left
    label.  Any other input is scanned pair by pair, so the error names the
    first bad pair: pairs are taken in order, each checked for its shape,
    then its labels, then a left label mapped twice.
    """
    if not isinstance(pairs, list):
        raise ParseError(f"{where}: {key} must be a list of label pairs")
    try:
        # dict() would also split a two-character string into a pair
        if set(map(type, pairs)) == {list}:
            images = dict(pairs)
            if len(images) == len(pairs) == len(left):
                return [right[images[label]] for label in left]
    except (KeyError, TypeError, ValueError):
        pass
    if key == "map":
        noun, unknown = "element", "unknown label"
    else:
        noun, unknown = "target atom", "unknown atom label"
    left_labels = list(left)
    table = [-1] * len(left_labels)
    for pair in pairs:
        i, v = _resolve_pair(pair, left, right, where, key, unknown)
        if table[i] != -1:
            raise ValidationError(f"{where}: {noun} {left_labels[i]!r} mapped twice")
        table[i] = v
    if -1 in table:
        missing = left_labels[table.index(-1)]
        raise ValidationError(f"{where}: {noun} {missing!r} has no image")
    return table


def _parse_hom(entry: dict, where: str, doc: Document) -> None:
    if not isinstance(entry, dict) or "name" not in entry:
        raise ParseError(f"{where}: hom entry must be an object with a name")
    name = entry["name"]
    if not isinstance(name, str) or not name:
        raise ParseError(f"{where}: hom name must be a nonempty string")
    if name in doc.homs:
        raise ValidationError(f"{where}: duplicate hom name {name!r}")
    for key in ("source", "target"):
        if not isinstance(entry.get(key), str):
            raise ParseError(f"{where}: {key} must be an algebra name")
        if entry[key] not in doc.algebras:
            raise ValidationError(f"{where}: {key} {entry[key]!r} is not defined")
    src_name, dst_name = entry["source"], entry["target"]
    src, dst = doc.algebras[src_name], doc.algebras[dst_name]

    if "map" in entry:
        src_index, dst_index = doc.label_index[src_name], doc.label_index[dst_name]
        table = _pair_table(entry["map"], src_index, dst_index, where, "map")
        doc.homs[name] = _validated(where, lambda: validate_hom(table, src, dst))
    elif "atom_map" in entry:
        src_labels, dst_labels = doc.labels[src_name], doc.labels[dst_name]
        src_atom_index = {src_labels[a]: k for k, a in enumerate(src.atoms)}
        dst_atom_index = {dst_labels[a]: q for q, a in enumerate(dst.atoms)}
        g = _pair_table(entry["atom_map"], dst_atom_index, src_atom_index, where, "atom_map")
        doc.homs[name] = _validated(where, lambda: hom_from_atom_function(src, dst, g))
    else:
        raise ParseError(f"{where}: hom needs 'map' or 'atom_map'")
    doc.hom_endpoints[name] = (src_name, dst_name)


def parse_document(text: str) -> Document:
    """Parse and validate a document; errors carry the entry they point at."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"JSON nested too deeply: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    unknown = set(data) - {"algebras", "homs"}
    if unknown:
        raise ParseError(f"unknown top-level keys: {sorted(unknown)}")
    for key in ("algebras", "homs"):
        if not isinstance(data.get(key, []), list):
            raise ParseError(f"{key} must be a list of entries")
    doc = Document()
    for idx, entry in enumerate(data.get("algebras", [])):
        _parse_algebra(entry, f"algebras[{idx}]", doc)
    for idx, entry in enumerate(data.get("homs", [])):
        _parse_hom(entry, f"homs[{idx}]", doc)
    return doc


def render_document(doc: Document) -> str:
    """Canonical JSON for a parsed document (stable key order and spacing)."""
    algebras = []
    for name, algebra in doc.algebras.items():
        labels = doc.labels[name]
        n = algebra.size
        up = algebra.up
        entry = {
            "name": name,
            "carrier": list(labels),
            "leq": [[labels[i], labels[j]] for i in range(n) for j in range(n) if up[i] >> j & 1],
            "complement": [
                [labels[i], labels[algebra.complement[i]]] for i in range(n)
            ],
        }
        algebras.append(entry)
    homs = []
    for name, hom in doc.homs.items():
        src_name, dst_name = doc.hom_endpoints[name]
        homs.append(
            {
                "name": name,
                "source": src_name,
                "target": dst_name,
                "map": [
                    [doc.labels[src_name][i], doc.labels[dst_name][v]]
                    for i, v in enumerate(hom.table)
                ],
            }
        )
    return json.dumps({"algebras": algebras, "homs": homs}, sort_keys=True, indent=2) + "\n"


def document_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
