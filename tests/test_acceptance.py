"""Acceptance criteria, one test per criterion, each printing a verdict line.

Everything here is exact: the objects are finite sets, so every comparison
is set equality at zero tolerance.  Criterion 1 additionally carries the
wall-clock budget stated for the exhaustive tier.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import stonecheck.audit as audit
import stonecheck.cli as cli
from helpers import members_of, validate_boolean_algebra
from stonecheck.algebra import (
    all_homs,
    hom_from_atom_function,
    powerset_algebra,
    ultrafilters,
)
from stonecheck.audit import audit_ownership
from stonecheck.compactification import (
    beta_extend_to_compact,
    beta_lift,
    beta_preserves,
    beta_space,
    extension_candidates,
)
from stonecheck.duality import (
    clopen_algebra,
    discrete_space,
    dual_space,
    phi_mask,
    stone_representation,
)
from stonecheck.extension import (
    canonical_extension,
    completion,
    completion_isomorphic,
    is_compact,
    is_dense,
    permuted_completion,
    sigma_extend,
)
from stonecheck.harness import (
    CheckResult,
    InstanceReport,
    build_diagram,
    exhaustive_suite,
    full_hom_instance,
)

SAMPLE = Path(__file__).resolve().parents[1] / "src/stonecheck/data/sample_document.json"
GOLDEN = Path(__file__).resolve().parent / "data/diagram_collapse_four_to_two.dot"

FOUR_ATOM_SEED = 20250810
FOUR_ATOM_SAMPLE = 120  # >= 100 required


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({description}): PASS")


def abstract_diamond():
    pairs = [("bot", x) for x in ("bot", "l", "r", "top")]
    pairs += [("l", "l"), ("l", "top"), ("r", "r"), ("r", "top"), ("top", "top")]
    labels = ["bot", "l", "r", "top"]
    index = {x: i for i, x in enumerate(labels)}
    return validate_boolean_algebra(
        4, [(index[a], index[b]) for a, b in pairs], [3, 2, 1, 0]
    )


def test_criterion_1_main_theorem_exhaustive_and_sampled():
    with criterion(1, "main theorem: sigma equals double dual"):
        started = time.perf_counter()
        report = exhaustive_suite(3)
        elapsed = time.perf_counter() - started
        homs = [i for i in report.instances if i.descriptor["kind"] == "hom"]
        duality_count = sum(k1**k2 for k1 in (1, 2, 3) for k2 in (1, 2, 3))
        assert len(homs) == duality_count
        for inst in homs:
            verdicts = {c.name: c.verdict for c in inst.checks}
            assert verdicts["sigma_equals_double_dual"] == "pass"
        assert all(i.passed for i in report.instances)
        assert elapsed < 10.0, f"exhaustive tier took {elapsed:.1f}s"

        rng = random.Random(FOUR_ATOM_SEED)
        four = powerset_algebra(4)
        checked = 0
        for _ in range(FOUR_ATOM_SAMPLE):
            g = tuple(rng.randrange(4) for _ in range(4))
            hom = hom_from_atom_function(four, four, g)
            diagram = build_diagram(hom)
            assert sigma_extend(hom) == tuple(diagram.double_dual)
            checked += 1
        assert checked >= 100


def test_criterion_2_canonical_extension_axioms():
    with criterion(2, "canonical extension dense+compact, embedding laws"):
        algebras = [powerset_algebra(n) for n in (1, 2, 3, 4)]
        algebras.append(abstract_diamond())
        for algebra in algebras:
            ext = canonical_extension(algebra)
            assert is_dense(ext) is None
            assert is_compact(ext) is None
            full = (1 << len(ultrafilters(algebra))) - 1
            masks = [phi_mask(algebra, a) for a in range(algebra.size)]
            lattice = algebra.lattice
            assert masks[algebra.bottom] == 0
            assert masks[algebra.top] == full
            for a in range(algebra.size):
                assert masks[algebra.complement[a]] == full ^ masks[a]
                for b in range(algebra.size):
                    assert masks[lattice.meet[a][b]] == masks[a] & masks[b]
                    assert masks[lattice.join[a][b]] == masks[a] | masks[b]
                    assert (masks[a] & ~masks[b] == 0) == lattice.leq_of(a, b)


def test_criterion_3_stone_representation():
    with criterion(3, "algebras are isomorphic to their clopen algebras"):
        for algebra in [powerset_algebra(n) for n in (1, 2, 3, 4)] + [abstract_diamond()]:
            table = stone_representation(algebra)
            assert len(set(table)) == algebra.size
            assert clopen_algebra(dual_space(algebra)).algebra.size == algebra.size


def test_criterion_4_universal_property():
    with criterion(4, "exactly one continuous extension through the embedding"):
        for nx in (1, 2, 3):
            bx = beta_space(tuple(f"x{i}" for i in range(nx)))
            targets = [discrete_space(tuple(f"y{i}" for i in range(ny))) for ny in (1, 2, 3)]
            targets += [dual_space(powerset_algebra(ny)) for ny in (1, 2, 3)]
            for target in targets:
                for f in itertools.product(range(target.size), repeat=nx):
                    candidates = extension_candidates(bx, f, target)
                    assert len(candidates) == 1
                    g = beta_extend_to_compact(bx, f, target)
                    assert all(g.table[bx.embed[i]] == f[i] for i in range(nx))


def test_criterion_5_lift_formula_and_image_lemma():
    with criterion(5, "ultrafilter lift equals the certified extension"):
        for nx, ny in itertools.product((1, 2, 3), repeat=2):
            bx = beta_space(tuple(f"x{i}" for i in range(nx)))
            by = beta_space(tuple(f"y{i}" for i in range(ny)))
            for f in itertools.product(range(ny), repeat=nx):
                lift = beta_lift(f, bx, by)
                composed = tuple(by.embed[v] for v in f)
                assert lift.table == beta_extend_to_compact(bx, composed, by.space).table
                for d, nabla in enumerate(bx.points_as_ultrafilters):
                    image_point = members_of(by.points_as_ultrafilters[lift.table[d]].members)
                    for a in members_of(nabla.members):
                        forward = 0
                        for x in range(nx):
                            if a >> x & 1:
                                forward |= 1 << f[x]
                        assert forward in image_point


def test_criterion_6_preservation():
    with criterion(6, "one-to-one/onto/bijective are preserved by lifting"):
        for nx, ny in itertools.product((1, 2, 3), repeat=2):
            bx = beta_space(tuple(f"x{i}" for i in range(nx)))
            by = beta_space(tuple(f"y{i}" for i in range(ny)))
            for f in itertools.product(range(ny), repeat=nx):
                assert beta_preserves(f, bx, by) is None
        for k1, k2 in itertools.product((1, 2, 3), repeat=2):
            for hom in all_homs(powerset_algebra(k1), powerset_algebra(k2)):
                assert full_hom_instance(hom).passed


def test_criterion_7_completion_uniqueness():
    with criterion(7, "dense+compact completions are isomorphic at small scale"):
        for n in (1, 2, 3):
            algebra = powerset_algebra(n)
            canon = canonical_extension(algebra)
            identity = completion(
                algebra.lattice, algebra.lattice, tuple(range(algebra.size))
            )
            assert completion_isomorphic(identity, canon) is not None
            generated = [identity, canon]
            generated.append(
                permuted_completion(canon, tuple(reversed(range(algebra.size))))
            )
            generated.append(
                permuted_completion(
                    canon, tuple((i + 1) % algebra.size for i in range(algebra.size))
                )
            )
            for c in generated:
                assert is_dense(c) is None and is_compact(c) is None
                assert completion_isomorphic(canon, c) is not None


def test_criterion_8_oracle_independence_audit():
    with criterion(8, "filter-formula and diagram-chase paths share no helpers"):
        result = audit_ownership()
        assert result.passed, f"disallowed shared helpers: {result.violations}"
        # the audit must not be vacuous: both roots reach their machinery
        assert "algebra.all_filters" in result.sigma_reachable
        # sigma_extend reads the Stone embedding as a whole table
        assert "duality.phi_table" in result.sigma_reachable
        assert "compactification.beta_space" in result.diagram_reachable
        assert "duality.hat_phi_point_mask" in result.diagram_reachable
        # the ultrafilter rows and indicators serve the diagram path only
        assert "duality.ultrafilter_rows" in result.diagram_reachable
        assert "duality.ultrafilter_rows" not in result.sigma_reachable
        assert "extension.sigma_extend" not in result.diagram_reachable
        assert "algebra.all_filters" not in result.diagram_reachable


def test_the_audit_allows_only_the_helpers_it_names(monkeypatch):
    # the two paths share exactly the listed helpers, and one dropped from
    # the list is a violation, even one from the algebra core
    assert audit_ownership().shared == audit.SHARED_ALLOWED
    allowed = tuple(name for name in audit.SHARED_ALLOWED if name != "algebra.ultrafilters")
    monkeypatch.setattr(audit, "SHARED_ALLOWED", allowed)
    assert audit_ownership().violations == ("algebra.ultrafilters",)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "stonecheck", *args],
        text=True,
        capture_output=True,
        check=False,
    )


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    with criterion(9, "byte-identical outputs and 0/1/2 exit codes"):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        p1 = run_cli("verify", str(SAMPLE), "collapse_four_to_two", "--out", str(r1))
        p2 = run_cli("verify", str(SAMPLE), "collapse_four_to_two", "--out", str(r2))
        assert p1.returncode == 0 and p2.returncode == 0
        assert r1.read_bytes() == r2.read_bytes()

        d1, d2 = tmp_path / "d1.dot", tmp_path / "d2.dot"
        assert run_cli("diagram", str(SAMPLE), "collapse_four_to_two", "--out", str(d1)).returncode == 0
        assert run_cli("diagram", str(SAMPLE), "collapse_four_to_two", "--out", str(d2)).returncode == 0
        assert d1.read_bytes() == d2.read_bytes()
        assert d1.read_bytes() == GOLDEN.read_bytes()

        payload = json.loads(r1.read_text())
        assert set(payload) == {
            "schema_version",
            "tool_version",
            "input_digest",
            "instances",
        }

        assert run_cli("verify", "--all", "--max-atoms", "1").returncode == 0
        assert run_cli("verify", str(SAMPLE), "identity_four", "--all").returncode == 2
        assert run_cli("dual", str(SAMPLE), "no_such_name").returncode == 2
        # a counterexample report maps to exit code 1 (no honest input can
        # produce one, so the mapping is pinned on a synthetic report)
        synthetic = InstanceReport(
            {"kind": "hom", "name": "synthetic"},
            [CheckResult("sigma_equals_double_dual", {"subset_mask": 1})],
        )
        tally = cli._Tally()
        list(cli._report_pieces([(synthetic, None)], "d", tally))
        assert (0 if tally.passed else 1) == 1
