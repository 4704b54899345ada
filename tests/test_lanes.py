"""A block runs each hom in a lane of its own.

``SuitePlan.run`` runs the battery a block at a time: every distinct hom
with one source and one target size, each in one byte lane of the block's
tables.  Each lane must be exactly what its hom gives alone, as a block of
one: the same sigma table, the same arrows of the diagram, the same checks
and witnesses.  A fault in one lane must show on that hom's report only,
and a block that raises must leave the report that running each hom alone
leaves.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

import stonecheck.harness as harness
from helpers import replace
from stonecheck.algebra import all_homs, hom_from_atom_function, powerset_algebra
from stonecheck.cli import main
from stonecheck.documents import parse_document
from stonecheck.errors import InvariantViolation
from stonecheck.extension import sigma_extend, sigma_lanes
from stonecheck.harness import _lane_checks, build_diagram, diagram_lanes, full_hom_instance

RELABELLED_FIVE = Path(__file__).resolve().parent / "data/relabelled_five.json"


def arrows(bundle):
    """Every table of a diagram bundle, as plain data."""
    return (
        bundle.h_star.table, bundle.h_star.preimages, bundle.h_star_beta.table,
        bundle.h_star_beta.preimages, bundle.double_dual, bundle.candidate_count, bundle.lift,
    )


def assert_lanes_are_blocks_of_one(homs):
    diagram, sigma = diagram_lanes(homs), sigma_lanes(homs)
    verdicts, _ = _lane_checks(diagram, sigma)
    lanes = len(homs)
    for j, h in enumerate(homs):
        assert tuple(sigma[j::lanes]) == sigma_extend(h)
        assert arrows(diagram.bundle(j)) == arrows(build_diagram(h))
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
