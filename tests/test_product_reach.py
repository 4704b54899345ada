"""Every function in ``src/stonecheck`` runs in some product command, or is
named here with the reason it does not.

A fresh interpreter sets a ``sys.setprofile`` hook before it imports
``stonecheck.cli``, so import-time calls count too, and then runs the
product's commands through ``cli.main``: ``verify --all`` exhaustive at 3
atoms and sampled at 4; ``dual --dot``, ``canext``, ``verify`` and
``diagram`` on every algebra and hom of the three valid documents; the
invalid documents that reach each validation scan; and ``--help``.  The
functions whose code never ran must be exactly ``NEVER_RAN``.  A function
that stops running, or a new function that no command reaches, fails the
test until it joins the product or the list, with its reason.

The runner also records how many hits each cache of the package gets over
the commands: every ``object_cache`` and ``functools.cache`` wrapper, a
module-level function or a property getter, by the ``cache_info()`` delta
from just after the import to the end.  A cache that no command hits must
be named in ``NO_CACHE_HIT`` with its reason; otherwise it only costs its
memory and its lookups, and should go.
"""

import json
import os
import subprocess
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path

import pytest
from test_cli import M3_DIAMOND

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PACKAGE = SRC / "stonecheck"
DATA = TESTS / "data"
SAMPLE = PACKAGE / "data" / "sample_document.json"

# The hook is set before stonecheck.cli is imported.  argv[1] holds the
# commands as JSON, argv[2] the path the result is written to: each
# command's exit code (a SystemExit's code for --help), the
# (file, first line, name) of every code object that was called, and the
# hits of every cache wrapper, by module.qualname, over the commands.
RUNNER = r"""
import json, sys

ran = set()

def hook(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)

def cache_hits():
    found = {}
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("stonecheck"):
            continue
        for value in list(vars(module).values()):
            getters = [value]
            if isinstance(value, type):
                getters = [p.fget for p in vars(value).values() if isinstance(p, property)]
            for g in getters:
                if hasattr(g, "cache_info") and g.__module__.startswith("stonecheck."):
                    name = g.__module__.removeprefix("stonecheck.") + "." + g.__qualname__
                    found[name] = g.cache_info().hits
    return found

sys.setprofile(hook)
import stonecheck.cli as cli

before = cache_hits()
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(cli.main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
sys.setprofile(None)
hits = {name: count - before[name] for name, count in cache_hits().items()}
called = sorted({(c.co_filename, c.co_firstlineno, c.co_name) for c in ran})
with open(sys.argv[2], "w") as out:
    json.dump({"codes": codes, "called": called, "cache_hits": hits}, out)
"""

# The functions no product command runs, by reason, as module.qualname.
NEVER_RAN = {
    # Per-layer metrics of the benchmark name these, so they change only
    # together with the benchmark.
    "traced by perfbench": {
        "algebra.fin_poset",
        "cli.report_json",
        "compactification.beta_extend_to_compact",
        "duality.continuous_map",
        "duality.phi_mask",
        "harness.double_dual_map",
    },
    # Paper concepts the certificate does not run yet, with their records
    # and helpers: the replayable failure document (ROADMAP item 6) and the
    # law tier (item 8).
    "reserved for item 6 or 8": {
        "documents.render_document",
        "algebra.compose_homs",
        "duality.compose_continuous",
        "duality.dual_of_continuous",
        "duality.ContinuousMap.is_injective",
        "duality.ContinuousMap.is_surjective",
        "compactification.beta_preserves",
        "compactification._is_homeomorphism",
        "compactification.compactification_leq",
        "compactification.compactification_equivalent",
        "compactification._comparable",
        "extension.completion_isomorphic",
        "extension.permuted_completion",
    },
    # Reached only by a failure that the shipped code never produces on
    # these commands (a failed check, whose witness the shrinker
    # minimises) or by invalid input they do not contain (a relation that
    # is not a partial order, a malformed document pair).
    "failure-only": {
        "algebra._lowest_bit",
        "documents._resolve_pair",
        "harness._compressed",
        "harness._hom_checks.still_fails",
        "harness.shrink_failing_hom",
    },
    # Library entry points and record members that only tests and the
    # static ownership audit call.
    "test API": {
        "algebra.FieldEquality._key",
        "algebra.FieldEquality.__eq__",
        "algebra.FieldEquality.__hash__",
        "algebra.FieldEquality.__repr__",
        "audit.AuditResult.__init__",
        "audit.AuditResult.passed",
        "audit._call_graph",
        "audit._reachable",
        "audit.audit_ownership",
        "harness.InstanceReport.passed",
        "harness.VerificationReport.__init__",
        "harness.exhaustive_suite",
    },
}


# The caches no product command hits, by module.qualname, with the reason.
NO_CACHE_HIT: dict[str, str] = {}


def defined_functions() -> dict[tuple[str, int, str], str]:
    """Every function of the package, keyed as the runner records it, to
    its ``module.qualname`` (nested functions joined by dots)."""
    out = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if not hasattr(const, "co_code"):
                continue
            name = f"{prefix}.{const.co_name}"
            if const.co_flags & CO_OPTIMIZED and not const.co_name.startswith("<"):
                out[(Path(const.co_filename).name, const.co_firstlineno, const.co_name)] = name
            walk(const, name)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), path.name, "exec"), path.stem)
    return out


def product_commands(tmp_path: Path) -> tuple[list[list[str]], list[int]]:
    """The commands the runner replays, with the exit code each must give."""
    m3 = tmp_path / "m3.json"
    m3.write_text(json.dumps(M3_DIAMOND))
    commands = [
        (["verify", "--all", "--max-atoms", "3"], 0),
        (["verify", "--all", "--max-atoms", "4", "--seed", "7", "--count", "200"], 0),
    ]
    for doc in (SAMPLE, DATA / "relabelled_five.json", DATA / "quoted_labels.json"):
        raw = json.loads(doc.read_text())
        for k, entry in enumerate(raw["algebras"]):
            dot = str(tmp_path / f"{doc.stem}-{k}.dot")
            commands.append((["dual", str(doc), entry["name"], "--dot", "--out", dot], 0))
            commands.append((["canext", str(doc), entry["name"]], 0))
        for k, entry in enumerate(raw["homs"]):
            report = str(tmp_path / f"{doc.stem}-{k}.json")
            diagram = str(tmp_path / f"{doc.stem}-{k}-diagram.dot")
            commands.append((["verify", str(doc), entry["name"], "--out", report], 0))
            commands.append((["diagram", str(doc), entry["name"], "--out", diagram], 0))
    commands += [
        (["verify", str(DATA / "relabelled_five_bad_map.json"), "collapse"], 2),
        (["canext", str(DATA / "relabelled_five_bad_complement.json"), "five"], 2),
        (["canext", str(DATA / "relabelled_five_missing_cover.json"), "five"], 2),
        (["canext", str(m3), "m3"], 2),
        (["--help"], 0),
    ]
    return [argv for argv, _ in commands], [code for _, code in commands]


@pytest.fixture(scope="module")
def product_run(tmp_path_factory):
    """The runner's result over ``product_commands``, once for the module."""
    tmp_path = tmp_path_factory.mktemp("product")
    argvs, expected = product_commands(tmp_path)
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(argvs), str(result)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text())
    assert data["codes"] == expected
    return data


def test_every_function_runs_in_a_product_command_or_is_listed(product_run):
    called = {
        (Path(filename).name, line, name)
        for filename, line, name in product_run["called"]
        if Path(filename).resolve().parent == PACKAGE
    }
    never_ran = {qualname for key, qualname in defined_functions().items() if key not in called}
    listed = set().union(*NEVER_RAN.values())
    assert sorted(never_ran - listed) == [], "functions no command reaches"
    assert sorted(listed - never_ran) == [], "listed functions that now run"


def test_every_cache_is_hit_by_a_product_command_or_is_listed(product_run):
    hits = product_run["cache_hits"]
    # the walk finds the caches of every kind: a property getter, an
    # object_cache function and a functools.cache function
    assert {"algebra.FinBoolAlg.lattice", "duality._ultrafilter_rows", "cli.build_parser"} <= set(hits)
    assert set(NO_CACHE_HIT) <= set(hits), "listed caches that do not exist"
    never_hit = sorted(name for name, count in hits.items() if count == 0)
    assert [name for name in never_hit if name not in NO_CACHE_HIT] == [], "caches no command hits"
    assert [name for name in NO_CACHE_HIT if hits[name]] == [], "listed caches that now hit"
