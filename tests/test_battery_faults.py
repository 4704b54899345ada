"""Seeded faults in the diagram or the filter formula become failed checks.

Each fault wraps ``build_diagram`` or ``sigma_extend`` as the harness sees
them and corrupts one piece of their output; the faults run over a suite
wrap the block functions behind them, ``diagram_lanes`` and
``sigma_lanes``, and corrupt every lane alike.  Every one of the eleven
checks of the per-homomorphism battery must fail for at least one fault,
and the failing reports (witnesses and shrunk instances included) are
pinned by digest so that refactoring the battery cannot change them.
"""

import hashlib
import json
from pathlib import Path

import stonecheck.extension as extension
import stonecheck.harness as harness
from helpers import replace, report_jsonable
from stonecheck.algebra import _preimage_lanes, hom_from_atom_function, powerset_algebra
from stonecheck.cli import main
from stonecheck.harness import (
    VerificationReport,
    exhaustive_suite,
    full_hom_instance,
)

SAMPLE = Path(__file__).resolve().parents[1] / "src/stonecheck/data/sample_document.json"

BATTERY = (
    "sigma_equals_double_dual",
    "embedded_elements_preserved",
    "preimage_membership_equivalence",
    "sigma_is_boolean_hom",
    "sigma_injective_when_injective",
    "sigma_surjective_when_surjective",
    "sigma_isomorphism_when_isomorphism",
    "unique_continuous_extension",
    "extension_square_commutes",
    "lift_paths_agree",
    "forward_image_in_lifted_ultrafilter",
)


def _shifted_lanes(table: bytes, points: int) -> bytes:
    """Every entry of every lane moved to the next point (a wrong table
    when points > 1)."""
    return table.translate(bytes((v + 1) % points for v in range(points)).ljust(256, b"\0"))


def _wrong_lift_lanes(diagram):
    return replace(diagram, lift=_shifted_lanes(diagram.lift, diagram.beta1.space.size))


def _wrong_sigma_lanes(sigma, lanes):
    """``_wrong_sigma`` on every lane of a block."""
    return sigma[:lanes] * 2 + sigma[2 * lanes :]


def _install_wrong_sigma(monkeypatch):
    """Bind ``_wrong_sigma_lanes`` of the real blocks where the harness and
    ``sigma_extend`` read ``sigma_lanes``, so the shrinker sees it too."""
    real = extension.sigma_lanes

    def wrong(homs):
        return _wrong_sigma_lanes(real(homs), len(homs))

    for module in (extension, harness):
        monkeypatch.setattr(module, "sigma_lanes", wrong)


def _two_candidates(diagram):
    return replace(diagram, candidate_counts=[2])


def _wrong_extension(diagram):
    points = diagram.beta1.space.size
    table = _shifted_lanes(diagram.h_star_beta.table, points)
    pre = _preimage_lanes(table, 1, points)
    return replace(diagram, h_star_beta=replace(diagram.h_star_beta, table=table, preimages=pre))


def _wrong_double_dual(diagram):
    table = bytearray(diagram.double_dual)
    table[1] ^= 1
    return replace(diagram, double_dual=bytes(table))


def _reordered_beta_points(diagram):
    points = diagram.beta1.points_as_ultrafilters
    return replace(diagram, beta1=replace(diagram.beta1, points_as_ultrafilters=points[::-1]))


def _wrong_sigma(sigma):
    table = list(sigma)
    table[1] = table[0]
    return tuple(table)


DIAGRAM_FAULTS = {
    "two_candidates": _two_candidates,
    "wrong_lift": _wrong_lift_lanes,
    "wrong_extension": _wrong_extension,
    "wrong_double_dual": _wrong_double_dual,
    "reordered_beta_points": _reordered_beta_points,
}

# (source atoms, target atoms, atom function): an automorphism, an
# embedding, a collapse, and a map that is neither one-to-one nor onto
HOMS = ((2, 2, (1, 0)), (2, 3, (0, 1, 1)), (3, 2, (2, 0)), (3, 3, (0, 0, 2)))


def _run_battery(fault_name):
    instances = []
    for k1, k2, g in HOMS:
        h = hom_from_atom_function(powerset_algebra(k1), powerset_algebra(k2), g)
        instances.append(full_hom_instance(h, extra={"fault": fault_name}))
    return VerificationReport(instances)


def _fault_reports(monkeypatch):
    real_build, real_sigma = harness.build_diagram, harness.sigma_extend
    reports = {}
    for name, fault in DIAGRAM_FAULTS.items():
        monkeypatch.setattr(harness, "build_diagram", lambda h, f=fault: f(real_build(h)))
        reports[name] = _run_battery(name)
    monkeypatch.setattr(harness, "build_diagram", real_build)
    monkeypatch.setattr(harness, "sigma_extend", lambda h: _wrong_sigma(real_sigma(h)))
    reports["wrong_sigma"] = _run_battery("wrong_sigma")
    return reports


def test_every_check_fails_under_some_seeded_fault(monkeypatch):
    reports = _fault_reports(monkeypatch)
    failed = {
        check.name
        for report in reports.values()
        for inst in report.instances
        for check in inst.checks
        if check.verdict == "fail"
    }
    assert failed == set(BATTERY)
    for report in reports.values():
        assert not all(i.passed for i in report.instances)
        for inst in report.instances:
            assert tuple(c.name for c in inst.checks) == BATTERY


def test_fault_reports_stay_byte_identical(monkeypatch):
    reports = _fault_reports(monkeypatch)
    payload = {name: report_jsonable(report) for name, report in reports.items()}
    shrunk = [
        check["witness"]["shrunk"]
        for instances in payload.values()
        for inst in instances
        for check in inst["checks"]
        if check["name"] == "sigma_equals_double_dual" and check["verdict"] == "fail"
    ]
    assert shrunk and all(w["target_atoms"] < 3 for w in shrunk)
    text = json.dumps(payload, sort_keys=True)
    # re-pinned when preimage_membership_equivalence began to read the
    # preimages of h_* and the points of beta2: against the previous pin
    # only that check's rows changed, failing under wrong_extension and
    # passing under reordered_beta_points, for all four homs
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "18b4ea2168b01773ee746e4dcb4c9054d84548d6229b2f450ec6c363ce51a9ef"
    )


def test_disagreeing_lift_is_a_failed_check_not_an_error(monkeypatch, capsys):
    real_lift = harness.beta_lift_lanes

    def wrong_lift(f, bx, by):
        lifted = real_lift(f, bx, by)
        table = _shifted_lanes(lifted.table, by.space.size)
        pre = _preimage_lanes(table, lifted.lanes, by.space.size)
        return replace(lifted, table=table, preimages=pre)

    monkeypatch.setattr(harness, "beta_lift_lanes", wrong_lift)
    code = main(["verify", str(SAMPLE), "identity_four", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    checks = {
        c["name"]: c["verdict"] for c in json.loads(captured.out)["instances"][0]["checks"]
    }
    assert checks["lift_paths_agree"] == "fail"
    assert [name for name, verdict in checks.items() if verdict == "fail"] == [
        "lift_paths_agree"
    ]


def test_fault_shows_on_every_repeated_draw_of_the_faulty_hom(monkeypatch):
    # the shifted lift is wrong exactly when the source has two atoms
    real_lanes = harness.diagram_lanes
    monkeypatch.setattr(harness, "diagram_lanes", lambda homs: _wrong_lift_lanes(real_lanes(homs)))
    draws = {}
    for inst in exhaustive_suite(2, (5, 300)).instances:
        d = inst.descriptor
        if d["kind"] == "hom":
            draws.setdefault((d["source_atoms"], tuple(d["atom_function"])), []).append(inst)
    faulty = {key: insts for key, insts in draws.items() if key[0] == 2}
    assert faulty and all(len(insts) > 1 for insts in faulty.values())
    for (k1, g), insts in faulty.items():
        h = hom_from_atom_function(powerset_algebra(k1), powerset_algebra(len(g)), g)
        expected = full_hom_instance(h).checks
        assert [c.name for c in expected if c.verdict == "fail"] == ["lift_paths_agree"]
        for inst in insts:
            assert inst.checks == expected
    assert all(inst.passed for key, insts in draws.items() if key[0] == 1 for inst in insts)


def test_failing_sampled_report_file_is_pinned(monkeypatch, tmp_path, capsys):
    _install_wrong_sigma(monkeypatch)
    out = tmp_path / "report.json"
    argv = ["verify", "--all", "--max-atoms", "3", "--seed", "5", "--count", "40"]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().out == "43 instances, 449 checks: COUNTEREXAMPLE FOUND\n"
    assert '"shrunk": {' in out.read_text()
    # pinned from the report file written before sampled draws shared verdicts
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "190cc4886358fc84029aa5df295032301ad03a0763ce6501dbaa11593b85f093"
    )
