"""Malformed documents: pinned messages and a fuzz test of the pair paths.

Every bad entry must exit 2 with ``error:`` and the message of the parser,
never a traceback and never exit 3 (a library bug).  The table below pins
the exact exception and message for fixed malformed entries; the messages
were taken from the parser as it was before its label pairs were resolved
in one pass, so they also pin which pair is named first when several are
bad.  The Hypothesis test draws documents whose ``leq``, ``complement``,
``map`` and ``atom_map`` values are non-lists, objects, strings, pairs of
the wrong length, and pairs holding non-string or unknown labels.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stonecheck.cli import main
from stonecheck.documents import parse_document
from stonecheck.errors import LibraryBug, ParseError, StonecheckError, ValidationError

FOUR = ["bot", "l", "r", "top"]
LEQ = [["bot", "l"], ["bot", "r"], ["l", "top"], ["r", "top"]]
COMP = [["bot", "top"], ["l", "r"], ["r", "l"], ["top", "bot"]]
MAP = [["bot", "{}"], ["l", "{0}"], ["r", "{}"], ["top", "{0}"]]
ATOM_MAP = [["l", "{0}"], ["r", "{0}"]]


def alg(**changes):
    entry = {"name": "a", "carrier": FOUR, "leq": LEQ, "complement": COMP}
    entry.update(changes)
    return {"algebras": [entry]}


def hom(**changes):
    entry = {"name": "h", "source": "a", "target": "p"}
    entry.update(changes)
    return {"algebras": [*alg()["algebras"], {"name": "p", "powerset": 1}], "homs": [entry]}


def run_main(argv):
    """``main(argv)`` with its exit code and stderr; any exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


MALFORMED = [
    ('leq_dict', alg(leq={"bot": "l"}),
     ParseError, 'algebras[0]: leq must be a list of label pairs'),
    ('leq_string', alg(leq="bot<l"),
     ParseError, 'algebras[0]: leq must be a list of label pairs'),
    ('leq_pair_string', alg(leq=[["bot", "l"], "bl"]),
     ParseError, "algebras[0]: bad leq pair 'bl'"),
    ('leq_pair_dict', alg(leq=[{"bot": "l"}]),
     ParseError, "algebras[0]: bad leq pair {'bot': 'l'}"),
    ('leq_pair_short', alg(leq=[["bot"]]),
     ParseError, "algebras[0]: bad leq pair ['bot']"),
    ('leq_pair_long', alg(leq=[["bot", "l", "top"]]),
     ParseError, "algebras[0]: bad leq pair ['bot', 'l', 'top']"),
    ('leq_pair_empty', alg(leq=[[]]),
     ParseError, 'algebras[0]: bad leq pair []'),
    ('leq_int_label', alg(leq=[["bot", 1]]),
     ParseError, "algebras[0]: bad leq pair ['bot', 1]"),
    ('leq_null_label', alg(leq=[[None, "l"]]),
     ParseError, "algebras[0]: bad leq pair [None, 'l']"),
    ('leq_list_label', alg(leq=[[["bot"], "l"]]),
     ParseError, "algebras[0]: bad leq pair [['bot'], 'l']"),
    ('leq_unknown_label', alg(leq=[["bot", "mid"]]),
     ParseError, "algebras[0]: bad leq pair ['bot', 'mid']"),
    ('leq_first_bad_pair_named', alg(leq=[["bot", "l"], ["x", "y"], ["bot", 3]]),
     ParseError, "algebras[0]: bad leq pair ['x', 'y']"),
    ('leq_before_complement', alg(leq=[["bot", "l"], ["bot", "?"]], complement=[["bot"]]),
     ParseError, "algebras[0]: bad leq pair ['bot', '?']"),
    ('complement_dict', alg(complement={"bot": "top"}),
     ParseError, 'algebras[0]: complement must be a list of label pairs'),
    ('complement_pair_int', alg(complement=[["bot", "top"], 7]),
     ParseError, 'algebras[0]: bad complement pair 7'),
    ('complement_pair_long', alg(complement=[["bot", "top", "l"]]),
     ParseError, "algebras[0]: bad complement pair ['bot', 'top', 'l']"),
    ('complement_unknown_label', alg(complement=[["bot", "top"], ["l", "R"]]),
     ParseError, "algebras[0]: bad complement pair ['l', 'R']"),
    ('complement_bool_label', alg(complement=[[True, "top"]]),
     ParseError, "algebras[0]: bad complement pair [True, 'top']"),
    ('complement_twice', alg(complement=COMP + [["l", "l"]]),
     ValidationError, "algebras[0]: element 'l' has two complements"),
    ('complement_missing', alg(complement=COMP[:2]),
     ValidationError, "algebras[0]: element 'r' has no complement"),
    ('order_cycle', alg(leq=LEQ + [["top", "bot"]]),
     ValidationError, "algebras[0]: relation is not antisymmetric; witness=('antisymmetry', 0, 1)"),
    ('order_not_lattice', alg(leq=[["bot", "l"], ["bot", "r"]]),
     ValidationError, "algebras[0]: pair has no least upper bound; witness=('join', 0, 3)"),
    ('complement_law', alg(complement=[["bot", "top"], ["l", "l"], ["r", "r"], ["top", "bot"]]),
     ValidationError, 'algebras[0]: x and not-x do not meet to bottom; witness=(1, 1)'),
    ('map_dict', hom(map={"bot": "{}"}),
     ParseError, 'homs[0]: map must be a list of label pairs'),
    ('map_string', hom(map="bot"),
     ParseError, 'homs[0]: map must be a list of label pairs'),
    ('map_pair_string', hom(map=MAP[:1] + ["l{0}"]),
     ParseError, "homs[0]: bad map pair 'l{0}'"),
    ('map_pair_short', hom(map=[["bot"]]),
     ParseError, "homs[0]: bad map pair ['bot']"),
    ('map_pair_long', hom(map=[["bot", "{}", "{}"]]),
     ParseError, "homs[0]: bad map pair ['bot', '{}', '{}']"),
    ('map_int_label', hom(map=[[0, "{}"]]),
     ValidationError, "homs[0]: unknown label in pair [0, '{}']"),
    ('map_unknown_target_label', hom(map=[["bot", "{1}"]]),
     ValidationError, "homs[0]: unknown label in pair ['bot', '{1}']"),
    ('map_source_label_on_target_side', hom(map=[["bot", "bot"]]),
     ValidationError, "homs[0]: unknown label in pair ['bot', 'bot']"),
    ('map_twice', hom(map=MAP + [["l", "{}"]]),
     ValidationError, "homs[0]: element 'l' mapped twice"),
    ('map_missing', hom(map=MAP[:3]),
     ValidationError, "homs[0]: element 'top' has no image"),
    ('map_not_hom', hom(map=[["bot", "{}"], ["l", "{0}"], ["r", "{0}"], ["top", "{0}"]]),
     ValidationError, 'homs[0]: meet not preserved; witness=(1, 2)'),
    ('atom_map_dict', hom(atom_map={"{0}": "l"}),
     ParseError, 'homs[0]: atom_map must be a list of label pairs'),
    ('atom_map_string', hom(atom_map="l"),
     ParseError, 'homs[0]: atom_map must be a list of label pairs'),
    ('atom_map_pair_short', hom(atom_map=[["{0}"]]),
     ParseError, "homs[0]: bad atom_map pair ['{0}']"),
    ('atom_map_pair_dict', hom(atom_map=[{"{0}": "l"}]),
     ParseError, "homs[0]: bad atom_map pair {'{0}': 'l'}"),
    ('atom_map_null_label', hom(atom_map=[["{0}", None]]),
     ValidationError, "homs[0]: unknown atom label in pair ['{0}', None]"),
    ('atom_map_non_atom_label', hom(atom_map=[["{0}", "top"]]),
     ValidationError, "homs[0]: unknown atom label in pair ['{0}', 'top']"),
    ('atom_map_twice', hom(atom_map=[["{0}", "l"], ["{0}", "r"]]),
     ValidationError, "homs[0]: target atom '{0}' mapped twice"),
    ('atom_map_missing', hom(atom_map=[]),
     ValidationError, "homs[0]: target atom '{0}' has no image"),
    ('map_twice_named_before_a_later_bad_pair', hom(map=MAP[:2] + [["l", "{}"], ["x"]]),
     ValidationError, "homs[0]: element 'l' mapped twice"),
    ('map_unknown_label_named_before_a_later_bad_shape',
     hom(map=[["bot", "{}"], ["x", "{}"], "oops"]),
     ValidationError, "homs[0]: unknown label in pair ['x', '{}']"),
    ('map_bad_shape_named_before_a_later_twice', hom(map=[["bot", "{}"], 5, ["bot", "{}"]]),
     ParseError, 'homs[0]: bad map pair 5'),
    ('complement_bad_pair_named_before_an_earlier_twice',
     alg(complement=[["l", "r"], ["l", "l"], ["x"]]),
     ParseError, "algebras[0]: bad complement pair ['x']"),
    ('complement_pair_two_char_string', alg(complement=COMP[:3] + ["lr"]),
     ParseError, "algebras[0]: bad complement pair 'lr'"),
    ('map_pair_two_key_object', hom(map=MAP[:3] + [{"top": 1, "{0}": 2}]),
     ParseError, "homs[0]: bad map pair {'top': 1, '{0}': 2}"),
    ('leq_top_level_null', alg(leq=None),
     ParseError, 'algebras[0]: leq must be a list of label pairs'),
    ('map_top_level_int', hom(map=3),
     ParseError, 'homs[0]: map must be a list of label pairs'),
    ('empty_carrier', alg(carrier=[], leq=[], complement=[]),
     ValidationError, 'algebras[0]: carrier must be nonempty'),
]


@pytest.mark.parametrize(
    "document, error, message",
    [case[1:] for case in MALFORMED],
    ids=[case[0] for case in MALFORMED],
)
def test_malformed_entry_message_is_pinned(tmp_path, document, error, message):
    text = json.dumps(document)
    with pytest.raises(StonecheckError) as info:
        parse_document(text)
    assert (type(info.value), str(info.value)) == (error, message)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run_main(["dual", str(path), "a"]) == (2, f"error: {message}\n")


_JUNK = (
    st.none()
    | st.booleans()
    | st.integers(-2, 2)
    | st.text(alphabet="botlr{}0", max_size=3)
    | st.lists(st.sampled_from(FOUR), max_size=2)
    | st.dictionaries(st.sampled_from(FOUR), st.sampled_from(FOUR), max_size=2)
)


def _pairs(good_pairs, labels):
    """A pair list that starts from a valid one: some pairs replaced by
    junk, by pairs of other lengths or with other labels, some repeated,
    or the whole value replaced by a non-list."""
    label = st.sampled_from(labels) | _JUNK
    pair = (
        st.sampled_from(good_pairs)
        | st.lists(label, min_size=2, max_size=2)
        | st.lists(label, max_size=4)
        | _JUNK
    )

    @st.composite
    def edited(draw):
        pairs = list(good_pairs)
        for _ in range(draw(st.integers(0, 3))):
            slot = draw(st.integers(0, len(pairs)))
            if draw(st.booleans()) and slot < len(pairs):
                pairs[slot] = draw(pair)
            else:
                pairs.insert(slot, draw(pair))
        if draw(st.booleans()):
            pairs = pairs[: draw(st.integers(0, len(pairs)))]
        return pairs

    return edited() | st.lists(pair, max_size=6) | _JUNK


_ALGEBRA_LABELS = FOUR + ["{0}", "mid"]
_HOM_LABELS = FOUR + ["{}", "{0}", "{1}"]


@st.composite
def _documents(draw):
    document = hom(map=MAP)
    document["homs"].append({"name": "g", "source": "p", "target": "a", "atom_map": ATOM_MAP})
    algebra, (map_hom, atom_hom) = document["algebras"][0], document["homs"]
    slots = [
        (algebra, "leq", LEQ, _ALGEBRA_LABELS),
        (algebra, "complement", COMP, _ALGEBRA_LABELS),
        (map_hom, "map", MAP, _HOM_LABELS),
        (atom_hom, "atom_map", ATOM_MAP, _HOM_LABELS),
    ]
    for entry, key, good, labels in draw(st.lists(st.sampled_from(slots), min_size=1, max_size=2)):
        entry[key] = draw(_pairs(good, labels))
    return document


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=300, deadline=None)
@given(_documents())
def test_bad_pairs_exit_2_with_the_parser_message(doc_path, document):
    text = json.dumps(document)
    doc_path.write_text(text)
    try:
        doc = parse_document(text)
    except LibraryBug:
        raise
    except StonecheckError as exc:
        for argv in (["dual", str(doc_path), "a"], ["verify", str(doc_path), "h"]):
            assert run_main(argv) == (2, f"error: {exc}\n")
        return
    for name in doc.homs:
        code, err = run_main(["verify", str(doc_path), name])
        assert code in (0, 1) and err == ""
    assert run_main(["canext", str(doc_path), "a"]) == (0, "")
