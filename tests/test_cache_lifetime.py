"""Cached results live on the objects they were computed from.

A parsed document's algebras, and everything computed from them, must be
freed once the document is dropped: a process that runs many commands, or a
library user who parses many documents, must not grow with each one.  Only
the bounded module-level caches (``powerset_algebra`` and a few tables
keyed by atom count or by value) outlive a command.
"""

import contextlib
import gc
import importlib.util
import io
import json
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import stonecheck.cli as cli
from stonecheck.algebra import UltraFilter, powerset_algebra, ultrafilters, validate_hom
from stonecheck.compactification import BetaSpace, beta_space
from stonecheck.documents import parse_document
from stonecheck.errors import NotMeetPreserving

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = ROOT / "src/stonecheck/data/sample_document.json"


def test_a_document_is_freed_after_its_commands(monkeypatch, tmp_path, capsys):
    doc = json.loads(SAMPLE.read_text())
    doc["homs"].append({
        "name": "swap",
        "source": "abstract_four",
        "target": "abstract_four",
        "map": [["bot", "bot"], ["left", "right"], ["right", "left"], ["top", "top"]],
    })
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    built = []

    def parse_and_watch(text):
        document = parse_document(text)
        built.extend(
            weakref.ref(a)
            for a in document.algebras.values()
            if a is not powerset_algebra(a.atom_count)
        )
        return document

    monkeypatch.setattr(cli, "parse_document", parse_and_watch)
    commands = [
        ["dual", str(path), "abstract_four", "--dot", "--out", str(tmp_path / "hasse.dot")],
        ["canext", str(path), "abstract_four"],
        ["verify", str(path), "swap", "--out", str(tmp_path / "report.json")],
    ]
    for argv in commands:
        assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    gc.collect()
    assert len(built) == len(commands)
    assert [ref() for ref in built] == [None] * len(commands)


def test_a_target_lattice_is_freed_by_reference_counting_alone():
    # validate_hom, whether it accepts a table by atom additivity or scans
    # one that fails, keeps nothing on the target lattice beyond its byte
    # blocks, which must not refer back to it: a reference cycle would keep
    # it until the cycle collector ran
    doc = json.loads(SAMPLE.read_text())
    doc["homs"] = [{
        "name": "swap",
        "source": "abstract_four",
        "target": "abstract_four",
        "map": [["bot", "bot"], ["left", "right"], ["right", "left"], ["top", "top"]],
    }]
    text = json.dumps(doc)
    gc.collect()
    gc.disable()
    try:
        document = parse_document(text)
        hom = document.hom("swap")
        lattice = hom.target.lattice
        assert lattice is not powerset_algebra(2).lattice
        cached = set(lattice._cache)
        source, target = hom.source, hom.target
        # bottom to bottom and all else to top: the meet scan names a pair
        broken = [target.bottom if a == source.bottom else target.top for a in range(source.size)]
        with pytest.raises(NotMeetPreserving):
            validate_hom(broken, source, target)
        assert set(lattice._cache) == cached
        ref = weakref.ref(lattice)
        del document, hom, source, target, lattice
        assert ref() is None
    finally:
        gc.enable()


def _session_inputs():
    """The benchmark's seed-7 document session: one document, 100 commands."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench/workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        return module.document_session(7)
    finally:
        del sys.modules[spec.name]


def test_a_second_session_round_retains_next_to_nothing(monkeypatch, tmp_path):
    inputs = _session_inputs()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc.json").write_text(inputs.document)
    (tmp_path / "out").mkdir()

    def run_round() -> None:
        for argv in inputs.commands:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
        gc.collect()

    run_round()
    # only blocks allocated from here on are traced: what the second round keeps
    tracemalloc.start()
    try:
        run_round()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # each round kept about 2.2 MB while the caches were module-level
    assert retained <= 256 * 1024


def _fresh(name: str):
    """A new object, with an empty ``_cache``, that has the derived value ``name``."""
    ufs = ultrafilters(powerset_algebra(2))
    if name == "indicator":
        return UltraFilter(ufs[0].algebra, ufs[0].members, ufs[0].atom)
    beta = beta_space(ufs)
    return BetaSpace(beta.compactification, beta.points_as_ultrafilters, beta.algebra)


@pytest.mark.parametrize("name", ["indicator", "point_rows"])
def test_a_derived_value_is_computed_once_into_the_cache_field(name):
    obj = _fresh(name)
    info = getattr(type(obj), name).fget.cache_info
    misses = info().misses
    value = getattr(obj, name)
    assert getattr(obj, name) is value
    assert info().misses == misses + 1
    assert any(cached is value for cached in obj._cache.values())
    # a slots record has no instance __dict__ to hold the value, or to slow
    # its later attribute reads as taking one does on CPython 3.11
    assert not hasattr(obj, "__dict__")
