"""A block runs each hom in a lane of its own.

``SuitePlan.run`` makes a block's homs and runs its battery a block at a
time: every distinct hom with one source and one target size, each in one
byte lane of the block's tables.  Each lane must be exactly what its hom
gives alone, as a block of one: the same hom from its atom function, the
same sigma table, the same arrows of the diagram, the same checks and
witnesses.  A fault in one lane must show on that hom's report only, or
raise the error its table raises alone, and a block that raises must leave
the report that running each hom alone leaves.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

import stonecheck.algebra as algebra
import stonecheck.harness as harness
from helpers import replace
from stonecheck.algebra import (
    _hom_of_table,
    all_homs,
    hom_from_atom_function,
    homs_from_atom_functions,
    powerset_algebra,
)
from stonecheck.cli import main
from stonecheck.documents import parse_document
from stonecheck.errors import InvariantViolation
from stonecheck.extension import sigma_extend, sigma_lanes
from stonecheck.harness import _lane_checks, build_diagram, diagram_lanes, full_hom_instance

RELABELLED_FIVE = Path(__file__).resolve().parent / "data/relabelled_five.json"


def induced_table(source, target, g):
    """The image table of the hom that atom function g induces, from its
    definition: h(a) is the target element whose atoms are the q with atom
    g[q] below a."""
    table = []
    for mask in source.atom_mask:
        image = sum(1 << q for q, p in enumerate(g) if mask >> p & 1)
        table.append(target._mask_index[image])
    return tuple(table)


def assert_builder_is_blocks_of_one(source, target, functions):
    homs = homs_from_atom_functions(source, target, functions)
    assert len(homs) == len(functions)
    for g, h in zip(functions, homs):
        assert h == hom_from_atom_function(source, target, g)
        assert (h.source, h.target, h.table) == (source, target, induced_table(source, target, g))


@pytest.mark.parametrize("k1, k2", list(itertools.product(range(5), repeat=2)))
def test_the_builder_makes_each_hom_of_every_block_up_to_four_atoms_as_alone(k1, k2):
    source, target = powerset_algebra(k1), powerset_algebra(k2)
    functions = list(itertools.product(range(k1), repeat=k2))
    assert_builder_is_blocks_of_one(source, target, functions)
    assert homs_from_atom_functions(source, target, functions) == all_homs(source, target)


@pytest.mark.parametrize("source, target", list(itertools.product(["five", "three"], repeat=2)))
def test_the_builder_makes_each_hom_between_shuffled_presentations_as_alone(source, target):
    # element index is not atom mask on either side, so each lane's table
    # is read at the source's atom masks and translated to target indices
    doc = parse_document(RELABELLED_FIVE.read_text())
    source, target = doc.algebra(source), doc.algebra(target)
    assert source.atom_mask != tuple(range(source.size))
    assert target.atom_mask != tuple(range(target.size))
    functions = list(itertools.product(range(source.atom_count), repeat=target.atom_count))
    assert_builder_is_blocks_of_one(source, target, functions)


def test_a_repeated_atom_function_breaks_the_duality_count():
    three = powerset_algebra(3)
    functions = [(0, 1, 2), (2, 1, 0), (0, 1, 2)]
    with pytest.raises(InvariantViolation) as info:
        homs_from_atom_functions(three, three, functions)
    assert str(info.value) == "hom enumeration does not match the duality count"


@pytest.mark.parametrize(
    "functions",
    [[(0, 3)], [(0, -1)], [(0, 1, 0)], [(0, 1), (1,)], [(0, 1), (0, 256)]],
    ids=["past_the_source", "negative", "too_long", "too_short", "past_a_byte"],
)
def test_the_builder_refuses_a_function_outside_the_atoms(functions):
    three = powerset_algebra(3)
    with pytest.raises(ValueError) as info:
        homs_from_atom_functions(three, powerset_algebra(2), functions)
    assert str(info.value) == "atom function must map target atoms to source atoms"


@pytest.mark.parametrize("faulty", [[11], [11, 20], [0, 26]], ids=["one", "two", "first_and_last"])
def test_a_faulted_lane_raises_the_law_error_of_its_table_alone(monkeypatch, faulty):
    # flip bit 0 of entry 5 of each faulty lane's preimage table: the block
    # raises what the first faulty lane's table raises alone
    three = powerset_algebra(3)
    functions = list(itertools.product(range(3), repeat=3))
    real = algebra._preimage_lanes

    def faulted(table, lanes, target_size):
        cells = bytearray(real(table, lanes, target_size))
        for j in faulty:
            cells[(j << target_size) + 5] ^= 1
        return bytes(cells)

    monkeypatch.setattr(algebra, "_preimage_lanes", faulted)
    with pytest.raises(Exception) as block:
        homs_from_atom_functions(three, three, functions)
    table = list(real(bytes(functions[faulty[0]]), 1, 3))
    table[5] ^= 1
    with pytest.raises(Exception) as alone:
        _hom_of_table(tuple(table), three, three)
    assert type(block.value) is type(alone.value)
    assert str(block.value) == str(alone.value)
    assert block.value.witness == alone.value.witness is not None


def arrows(diagram, j):
    """Every table of lane j of a diagram block, sliced out of the block."""
    lanes = len(diagram.homs)

    def run(f):
        size = 1 << f.target.size
        return f.preimages[j * size : (j + 1) * size]

    return (
        diagram.h_star.table[j::lanes], run(diagram.h_star),
        diagram.h_star_beta.table[j::lanes], run(diagram.h_star_beta),
        diagram.double_dual[j::lanes], diagram.candidate_counts[j], diagram.lift[j::lanes],
    )


def assert_lanes_are_blocks_of_one(homs):
    diagram, sigma = diagram_lanes(homs), sigma_lanes(homs)
    verdicts, _ = _lane_checks(diagram, sigma)
    lanes = len(homs)
    for j, h in enumerate(homs):
        assert tuple(sigma[j::lanes]) == sigma_extend(h)
        one = build_diagram(h)
        assert one.homs == [h]
        assert arrows(diagram, j) == arrows(one, 0)
        alone = full_hom_instance(h).checks
        assert (list(harness._ALL_PASSED) if verdicts[j] is None else verdicts[j]) == alone


@pytest.mark.parametrize("k1, k2", list(itertools.product(range(1, 5), repeat=2)))
def test_every_lane_of_every_block_up_to_four_atoms_is_its_block_of_one(k1, k2):
    assert_lanes_are_blocks_of_one(all_homs(powerset_algebra(k1), powerset_algebra(k2)))


@pytest.mark.parametrize("source, target", list(itertools.product(["five", "three"], repeat=2)))
def test_every_lane_of_a_block_between_shuffled_presentations_is_its_block_of_one(source, target):
    # element index is not atom mask on either side
    doc = parse_document(RELABELLED_FIVE.read_text())
    homs = all_homs(doc.algebra(source), doc.algebra(target))
    if len(homs) > 400:
        homs = random.Random(5).sample(homs, 400)
    assert_lanes_are_blocks_of_one(homs)


def test_a_fault_in_one_lane_fails_that_hom_only_with_its_block_of_one_witness(monkeypatch):
    homs = all_homs(powerset_algebra(3), powerset_algebra(3))
    faulty = homs[11]
    real = harness.diagram_lanes

    def corrupted(block):
        # flip entry 1 of the faulty hom's double dual, wherever it runs
        diagram = real(block)
        cells = bytearray(diagram.double_dual)
        for j, h in enumerate(block):
            if h == faulty:
                cells[len(block) + j] ^= 1
        return replace(diagram, double_dual=bytes(cells))

    monkeypatch.setattr(harness, "diagram_lanes", corrupted)
    verdicts, _ = _lane_checks(harness.diagram_lanes(homs), sigma_lanes(homs))
    assert [j for j, v in enumerate(verdicts) if v is not None] == [11]
    alone = full_hom_instance(faulty).checks
    assert verdicts[11] == alone
    failed = [c.name for c in alone if c.witness is not None]
    assert failed == ["sigma_equals_double_dual", "embedded_elements_preserved"]


def test_a_builder_that_raises_mid_run_exits_3_naming_its_hom_after_the_instances_before_it(
    monkeypatch, tmp_path, capsys
):
    # building the 3 -> 2 block raises, so each of its homs is built alone
    # when it comes up, and the one that raises alone stops the run there
    whole = tmp_path / "whole.json"
    argv = ["verify", "--all", "--max-atoms", "3"]
    assert main([*argv, "--out", str(whole)]) == 0
    capsys.readouterr()
    real = algebra.homs_from_atom_functions

    def broken(source, target, functions):
        if source.atom_count == 3 and (2, 1) in functions:
            raise InvariantViolation("seeded library bug", (2, 1))
        return real(source, target, functions)

    monkeypatch.setattr(algebra, "homs_from_atom_functions", broken)
    monkeypatch.setattr(harness, "homs_from_atom_functions", broken)
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", "internal error: seeded library bug; witness=(2, 1)\n")
    text = out.read_text(encoding="utf-8")
    instances = json.loads(whole.read_text())["instances"]
    before = next(
        k for k, inst in enumerate(instances)
        if inst["descriptor"].get("atom_function") == [2, 1]
        and inst["descriptor"]["source_atoms"] == 3
    )
    assert before > 0
    assert whole.read_text(encoding="utf-8").startswith(text)
    assert text.count('"descriptor": ') == before
    assert text.endswith("\n    }")


def test_a_block_that_raises_leaves_the_report_of_each_hom_alone(monkeypatch, tmp_path, capsys):
    # the dual map of one hom raises, in its block and alone: the run stops
    # when that hom comes up, after every instance before it in report order
    whole = tmp_path / "whole.json"
    argv = ["verify", "--all", "--max-atoms", "3"]
    assert main([*argv, "--out", str(whole)]) == 0
    capsys.readouterr()
    faulty = hom_from_atom_function(powerset_algebra(3), powerset_algebra(2), (2, 1))
    real = harness.dual_map_lanes

    def broken(homs):
        if faulty in homs:
            raise InvariantViolation("seeded library bug", homs.index(faulty))
        return real(homs)

    monkeypatch.setattr(harness, "dual_map_lanes", broken)
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", "internal error: seeded library bug; witness=0\n")
    text = out.read_text(encoding="utf-8")
    instances = json.loads(whole.read_text())["instances"]
    before = next(
        k for k, inst in enumerate(instances)
        if inst["descriptor"].get("atom_function") == [2, 1]
        and inst["descriptor"]["source_atoms"] == 3
    )
    assert before > 0
    assert whole.read_text(encoding="utf-8").startswith(text)
    assert text.count('"descriptor": ') == before
    assert text.endswith("\n    }")
