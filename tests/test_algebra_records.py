"""What depends on one algebra only is built once per algebra and path.

The filter formula reads its source's plan (``extension._filter_plan``) and
the diagram chase each side's record (``harness._diagram_side``), so a
block's battery does only the work that depends on its homs.  Over the 4-atom
certificate each is built exactly once per algebra: counted in a fresh
interpreter, since ``powerset_algebra`` outlives a test.  Each sits in the
``_cache`` of its algebra and is freed with it.
"""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import stonecheck.extension as extension
import stonecheck.harness as harness
from helpers import identity_hom
from stonecheck.algebra import boolean_algebra_of_up_sets, powerset_algebra

SRC = Path(__file__).resolve().parents[1] / "src"

RUNNER = """
import contextlib, io, json, sys
from stonecheck import cli, extension, harness
from stonecheck.algebra import powerset_algebra
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--all", "--max-atoms", "4", "--out", sys.argv[1]])
records = {"plan": extension._filter_plan, "side": harness._diagram_side}
print(json.dumps({
    "code": code,
    "misses": {name: f.cache_info().misses for name, f in records.items()},
    "hits": {name: f.cache_info().hits for name, f in records.items()},
    "held": {
        name: [f.slot in powerset_algebra(k)._cache for k in range(1, 5)]
        for name, f in records.items()
    },
}))
"""


def test_each_path_builds_its_record_once_per_algebra_over_the_4_atom_certificate(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(tmp_path / "report.json")],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    # one build per powerset algebra of 1 to 4 atoms, on each path
    assert result["misses"] == {"plan": 4, "side": 4}
    assert result["held"] == {"plan": [True] * 4, "side": [True] * 4}
    # every other read is a hit: sigma reads its source's plan once per
    # block, and the diagram and the battery read three sides per block,
    # over the 16 blocks of one source and one target size
    assert result["hits"] == {"plan": 16 - 4, "side": 3 * 16 - 4}


def test_each_record_sits_in_its_algebras_cache_and_is_freed_with_it():
    # a fresh algebra, with an empty _cache, equal in order to the powerset's
    shared = powerset_algebra(2)
    algebra = boolean_algebra_of_up_sets(shared.up, shared.complement)
    hom = identity_hom(algebra)
    assert harness.full_hom_instance(hom).passed
    side = algebra._cache[harness._diagram_side.slot]
    assert side is harness._diagram_side(algebra)
    assert algebra._cache[extension._filter_plan.slot] is extension._filter_plan(algebra)
    refs = [weakref.ref(algebra), weakref.ref(side), weakref.ref(side.beta)]
    del algebra, hom, side
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
