"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from calibrate import SpeedGauge  # noqa: E402
from checks import failed_operations, inspect_outputs, sha256  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

import worker  # noqa: E402

SAMPLE = str(ROOT / "src" / "stonecheck" / "data" / "sample_document.json")


def test_generators_are_deterministic_per_seed():
    for name in WORKLOADS:
        assert make_inputs(name, 5) == make_inputs(name, 5)
    for name in ("sampled-4", "document-session"):
        assert make_inputs(name, 5) != make_inputs(name, 6)


def test_document_session_is_valid_and_large_enough():
    from stonecheck.documents import parse_document

    inputs = make_inputs("document-session", 11)
    doc = parse_document(inputs.document)
    assert len(inputs.commands) >= 100
    assert sorted(a.atom_count for a in doc.algebras.values()) == [1, 2, 2, 3, 3, 4, 4, 4, 5]
    assert {argv[2] for argv in inputs.commands if argv[0] == "verify"} == set(doc.homs)


def test_self_time_of_nested_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())

    def outer_body():
        mid()
        leaf()

    outer = tracer.wrap("outer", outer_body)
    outer()
    # Clock reads: outer 0, mid 1, leaf 2-3, mid ends 4, leaf 5-6, outer ends 7.
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 7.0, "self_s": 3.0}
    assert summary["mid"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert summary["leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert list(tracer.parent) == [-1, 0, 1, 0]


def _bindings() -> dict:
    return {
        (modname, attr): value
        for modname, module in list(sys.modules.items())
        if modname.startswith("stonecheck")
        for attr, value in vars(module).items()
    }


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    from stonecheck import algebra, harness

    before = _bindings()
    original = algebra.ultrafilters
    targets = worker.public_functions()
    tracer = Tracer()
    tracer.install("stonecheck", targets, worker.work_counters())
    try:
        # harness binds its own copy through ``from .algebra import ...``.
        assert harness.ultrafilters is not original
        assert harness.ultrafilters is algebra.ultrafilters
        argv = ["verify", SAMPLE, "identity_four", "--out", str(tmp_path / "t.json")]
        traced = worker.run_command(argv, SpeedGauge())
    finally:
        tracer.uninstall()
    assert _bindings() == before
    argv = ["verify", SAMPLE, "identity_four", "--out", str(tmp_path / "p.json")]
    plain = worker.run_command(argv, SpeedGauge())

    assert traced["rc"] == plain["rc"] == 0
    assert traced["stdout"] == plain["stdout"]
    assert (tmp_path / "t.json").read_bytes() == (tmp_path / "p.json").read_bytes()
    summary = tracer.summary()
    assert summary["algebra.ultrafilters"]["calls"] > 0
    assert summary["harness.full_hom_instance"]["calls"] == 1
    assert tracer.counts["compactification.extension_candidates.accepted"] == 2
    assert set(tracer.run) == {0}


def test_perturbed_report_fails_the_output_check(tmp_path):
    argv = ["verify", SAMPLE, "embed_two_in_four", "--out", str(tmp_path / "r.json")]
    record = worker.digest(worker.run_command(argv, SpeedGauge()))
    assert (record["operations"], record["failed"]) == (1, 0)
    reference = record["digest"]
    assert failed_operations(record, reference) == 0

    text = (tmp_path / "r.json").read_text()
    perturbed = dict(record, digest=dict(reference, out=sha256((text + " ").encode())))
    assert failed_operations(perturbed, reference) == 1

    report = json.loads(text)
    report["instances"][0]["checks"][0]["verdict"] = "fail"
    assert inspect_outputs(argv, "", json.dumps(report)) == (1, 1)

    assert failed_operations(dict(record, rc=1), reference) == 1


def test_canext_and_dual_outputs_are_checked(tmp_path):
    canext = worker.digest(worker.run_command(["canext", SAMPLE, "four"], SpeedGauge()))
    assert (canext["rc"], canext["failed"]) == (0, 0)
    assert inspect_outputs(["canext"], "dense: fail\ncompact: pass\n", None) == (1, 1)
    dot = str(tmp_path / "four.dot")
    argv = ["dual", SAMPLE, "four", "--dot", "--out", dot]
    dual = worker.digest(worker.run_command(argv, SpeedGauge()))
    assert (dual["rc"], dual["failed"]) == (0, 0)
    assert inspect_outputs(["dual", "--out", dot], "dual space of four\n", "") == (1, 1)



def test_speed_gauge_samples_while_active_and_then_stops():
    with SpeedGauge() as gauge:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert gauge.samples >= 3
    assert 0 < gauge.busy_s < 0.2
    assert gauge.scale() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
