"""No valid run reaches the law scans.

Every valid algebra is accepted by its atom encoding and every valid
homomorphism by atom additivity (``algebra.atom_additive``), so the plain
scans that name a broken law's witness (``poset_of_up_sets``,
``fin_lattice``, ``fin_bool_alg``, and whatever follows a rejecting
``atom_additive``) run only on invalid input.  These tests count them over
the exhaustive and sampled certificates and the relabelled document's
commands, where every input is valid.
"""

from collections import Counter
from pathlib import Path

import pytest

import stonecheck.algebra as algebra
import stonecheck.harness as harness
from stonecheck.cli import main

DOC = Path(__file__).parent / "data" / "relabelled_five.json"

RUNS = {
    "exhaustive-3": [["verify", "--all", "--max-atoms", "3"]],
    "sampled-4": [["verify", "--all", "--max-atoms", "4", "--seed", "7", "--count", "200"]],
    "relabelled-five": [
        ["dual", str(DOC), "five"],
        ["canext", str(DOC), "five"],
        ["verify", str(DOC), "collapse"],
    ],
}


@pytest.fixture
def traffic(monkeypatch):
    """Counts of the scan entry points and of ``atom_additive`` rejections."""
    counts = Counter()

    def counted(name, func):
        def wrapper(*args):
            counts[name] += 1
            return func(*args)

        return wrapper

    for name in ("fin_bool_alg", "fin_lattice", "poset_of_up_sets"):
        monkeypatch.setattr(algebra, name, counted(name, getattr(algebra, name)))

    real_additive = algebra.atom_additive

    def additive(*args):
        accepted = real_additive(*args)
        if not accepted:
            counts["atom_additive rejected"] += 1
        return accepted

    for module in (algebra, harness):
        monkeypatch.setattr(module, "atom_additive", additive)
    return counts


@pytest.mark.parametrize("run", RUNS)
def test_no_valid_run_reaches_a_law_scan(run, traffic, capsys):
    for argv in RUNS[run]:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert traffic == Counter()


def test_the_counters_see_an_invalid_input(traffic, capsys):
    # the guard is live: a document whose order misses a cover pair and a
    # hom with one changed map pair each reach their scan
    data = DOC.parent
    assert main(["canext", str(data / "relabelled_five_missing_cover.json"), "five"]) == 2
    assert main(["verify", str(data / "relabelled_five_bad_map.json"), "collapse"]) == 2
    capsys.readouterr()
    assert traffic["poset_of_up_sets"] == traffic["fin_lattice"] == 1
    assert traffic["atom_additive rejected"] == 1
