"""Document schema: parsing, validation context, shorthand expansion, round trip."""

import json

import pytest

from stonecheck.cli import main
from stonecheck.documents import (
    document_digest,
    parse_document,
    powerset_labels,
    render_document,
)
from stonecheck.errors import ParseError, UnknownName, ValidationError


def test_minimal_powerset_document():
    doc = parse_document('{"algebras":[{"name":"B2","powerset":1}]}')
    assert doc.algebra("B2").size == 2
    assert doc.labels["B2"] == ("{}", "{0}")


def test_three_element_abstract_algebra_fails_validation():
    text = json.dumps(
        {
            "algebras": [
                {
                    "name": "bad",
                    "carrier": ["a", "b", "c"],
                    "leq": [["a", "b"], ["b", "c"]],
                    "complement": [["a", "c"], ["b", "b"], ["c", "a"]],
                }
            ]
        }
    )
    with pytest.raises(ValidationError) as exc:
        parse_document(text)
    assert "algebras[0]" in str(exc.value)


def test_atom_shorthand_expands_to_direct_table():
    text = json.dumps(
        {
            "algebras": [
                {"name": "four", "powerset": 2},
                {"name": "two", "powerset": 1},
            ],
            "homs": [
                {
                    "name": "shorthand",
                    "source": "four",
                    "target": "two",
                    "atom_map": [["{0}", "{0}"]],
                },
                {
                    "name": "direct",
                    "source": "four",
                    "target": "two",
                    "map": [["{}", "{}"], ["{0}", "{0}"], ["{1}", "{}"], ["{0,1}", "{0}"]],
                },
            ],
        }
    )
    doc = parse_document(text)
    assert doc.hom("shorthand").table == doc.hom("direct").table


def test_ref_alias_points_at_same_algebra():
    doc = parse_document(
        '{"algebras":[{"name":"a","powerset":2},{"name":"b","ref":"a"}]}'
    )
    assert doc.algebra("a") is doc.algebra("b")


def test_duplicate_names_rejected():
    with pytest.raises(ValidationError):
        parse_document(
            '{"algebras":[{"name":"a","powerset":1},{"name":"a","powerset":1}]}'
        )


def test_unknown_names_raise():
    doc = parse_document('{"algebras":[{"name":"a","powerset":1}]}')
    with pytest.raises(UnknownName):
        doc.algebra("missing")
    with pytest.raises(UnknownName):
        doc.hom("missing")


def test_malformed_json_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_document("{not json")
    with pytest.raises(ParseError):
        parse_document('{"unexpected": []}')
    with pytest.raises(ParseError):
        parse_document('{"algebras": [{"powerset": 1}]}')


def test_total_map_required():
    text = json.dumps(
        {
            "algebras": [{"name": "two", "powerset": 1}],
            "homs": [
                {
                    "name": "partial",
                    "source": "two",
                    "target": "two",
                    "map": [["{}", "{}"]],
                }
            ],
        }
    )
    with pytest.raises(ValidationError) as exc:
        parse_document(text)
    assert "no image" in str(exc.value)


def test_render_parse_round_trip_is_stable():
    original = json.dumps(
        {
            "algebras": [
                {"name": "four", "powerset": 2},
                {
                    "name": "abs",
                    "carrier": ["bot", "x", "y", "top"],
                    "leq": [["bot", "x"], ["bot", "y"], ["x", "top"], ["y", "top"]],
                    "complement": [
                        ["bot", "top"],
                        ["x", "y"],
                        ["y", "x"],
                        ["top", "bot"],
                    ],
                },
            ],
            "homs": [
                {
                    "name": "pick",
                    "source": "four",
                    "target": "four",
                    "atom_map": [["{0}", "{1}"], ["{1}", "{0}"]],
                }
            ],
        }
    )
    doc = parse_document(original)
    rendered = render_document(doc)
    doc2 = parse_document(rendered)
    assert list(doc2.algebras) == list(doc.algebras)
    assert list(doc2.homs) == list(doc.homs)
    for name in doc.algebras:
        assert doc2.algebra(name).atom_mask == doc.algebra(name).atom_mask
    for name in doc.homs:
        assert doc2.hom(name).table == doc.hom(name).table
    # rendering is idempotent byte-for-byte
    assert render_document(doc2) == rendered


def test_powerset_labels_shape():
    assert powerset_labels(2) == ("{}", "{0}", "{1}", "{0,1}")


def test_digest_is_stable():
    assert document_digest("x") == document_digest("x")
    assert document_digest("x") != document_digest("y")


def abstract_powerset_entry(name, atoms):
    size = 1 << atoms
    labels = [f"e{m}" for m in range(size)]
    return {
        "name": name,
        "carrier": labels,
        "leq": [[labels[m], labels[m | 1 << i]] for m in range(size) for i in range(atoms)],
        "complement": [[labels[m], labels[(size - 1) ^ m]] for m in range(size)],
    }


def test_abstract_carrier_is_capped_at_32_elements():
    parse_document(json.dumps({"algebras": [abstract_powerset_entry("b5", 5)]}))
    with pytest.raises(ValidationError) as exc:
        parse_document(json.dumps({"algebras": [abstract_powerset_entry("b6", 6)]}))
    assert "algebras[0]" in str(exc.value) and "64" in str(exc.value)


def test_abstract_document_over_the_cap_exits_2(tmp_path):
    doc = tmp_path / "b6.json"
    doc.write_text(json.dumps({"algebras": [abstract_powerset_entry("b6", 6)]}))
    for argv in (["dual", str(doc), "b6"], ["canext", str(doc), "b6"]):
        assert main(argv) == 2


@pytest.mark.parametrize(
    "pair", [[["bot"], "top"], ["bot", {"x": 1}], ["bot", 3], ["bot"]]
)
def test_malformed_order_or_map_pair_is_a_user_error(pair):
    algebra = {
        "name": "abs",
        "carrier": ["bot", "top"],
        "leq": [pair],
        "complement": [["bot", "top"], ["top", "bot"]],
    }
    with pytest.raises(ParseError):
        parse_document(json.dumps({"algebras": [algebra]}))
    algebra["leq"] = [["bot", "top"]]
    for key, value in (("map", [pair, ["top", "{0}"]]), ("atom_map", [pair])):
        hom = {"name": "h", "source": "abs", "target": "two", key: value}
        with pytest.raises((ParseError, ValidationError)):
            parse_document(
                json.dumps({"algebras": [algebra, {"name": "two", "powerset": 1}], "homs": [hom]})
            )


# Each malformed map below is reported with the class and message pinned
# from the pair-by-pair scan, so a one-pass resolution of the well-formed
# case must fall back to that scan on every one of them.  A two-character
# string is a pair to dict(): "00", "11" would make a total table.
BINARY = {"name": "b", "carrier": ["0", "1"], "leq": [["0", "1"]], "complement": [["0", "1"], ["1", "0"]]}
MALFORMED_MAPS = {
    "string_pair": (["00", ["1", "1"]], ParseError, "homs[0]: bad map pair '00'"),
    "string_pairs_making_a_table": (["00", "11"], ParseError, "homs[0]: bad map pair '00'"),
    "three_items": ([["0", "0", "1"], ["1", "1"]], ParseError, "homs[0]: bad map pair ['0', '0', '1']"),
    "one_item": ([["0"], ["1", "1"]], ParseError, "homs[0]: bad map pair ['0']"),
    "unhashable_source": (
        [[["0"], "1"], ["1", "1"]], ValidationError, "homs[0]: unknown label in pair [['0'], '1']"
    ),
    "unhashable_target": (
        [["0", ["1"]], ["1", "1"]], ValidationError, "homs[0]: unknown label in pair ['0', ['1']]"
    ),
    "number_label": ([[0, "0"], ["1", "1"]], ValidationError, "homs[0]: unknown label in pair [0, '0']"),
    "duplicated_source": ([["0", "0"], ["0", "1"]], ValidationError, "homs[0]: element '0' mapped twice"),
    "unknown_target": (
        [["0", "x"], ["1", "1"]], ValidationError, "homs[0]: unknown label in pair ['0', 'x']"
    ),
    "unknown_source": (
        [["x", "0"], ["1", "1"]], ValidationError, "homs[0]: unknown label in pair ['x', '0']"
    ),
    "extra_pair": (
        [["0", "0"], ["1", "1"], ["x", "1"]], ValidationError, "homs[0]: unknown label in pair ['x', '1']"
    ),
    "missing_source": ([["1", "1"]], ValidationError, "homs[0]: element '0' has no image"),
    "empty": ([], ValidationError, "homs[0]: element '0' has no image"),
    "not_a_list": ({"0": "0", "1": "1"}, ParseError, "homs[0]: map must be a list of label pairs"),
    # the one atom of b is "1": dict(["11"]) would be a total atom map
    "string_atom_pair_making_a_table": (["11"], ParseError, "homs[0]: bad atom_map pair '11'"),
}


@pytest.mark.parametrize("case", MALFORMED_MAPS)
def test_a_malformed_map_names_its_first_bad_pair(case):
    pairs, error, message = MALFORMED_MAPS[case]
    key = "atom_map" if "atom" in case else "map"
    hom = {"name": "h", "source": "b", "target": "b", key: pairs}
    with pytest.raises(error) as exc:
        parse_document(json.dumps({"algebras": [BINARY], "homs": [hom]}))
    assert type(exc.value) is error and str(exc.value) == message


def test_a_well_formed_map_in_any_pair_order_gives_the_same_table():
    pairs = [["{0,1}", "{0,1}"], ["{}", "{}"], ["{1}", "{0}"], ["{0}", "{1}"]]
    algebras = [{"name": "p", "powerset": 2}]
    tables = set()
    for order in (pairs, pairs[::-1]):
        hom = {"name": "swap", "source": "p", "target": "p", "map": order}
        tables.add(parse_document(json.dumps({"algebras": algebras, "homs": [hom]})).hom("swap").table)
    assert tables == {(0, 2, 1, 3)}
