"""Command-line interface: listings, reports, DOT output, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stonecheck.cli as cli
import stonecheck.documents as documents
import stonecheck.harness as harness
from stonecheck import __version__
from stonecheck.cli import SCHEMA_VERSION, exit_code_for_report, main, report_json
from stonecheck.algebra import MAX_HOM_ATOMS, all_homs
from stonecheck.errors import (
    BoundExceeded,
    InvariantViolation,
    NoClopenPreimage,
    NoExtension,
    ParseError,
)
from stonecheck.harness import (
    CheckResult,
    InstanceReport,
    VerificationReport,
    report_jsonable,
)

SAMPLE = Path(__file__).resolve().parents[1] / "src/stonecheck/data/sample_document.json"
GOLDEN_DIR = Path(__file__).resolve().parent / "data"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "stonecheck", *args],
        text=True,
        capture_output=True,
        check=False,
    )


def test_relabelled_five_atom_document_exits_0_and_its_broken_copy_exits_2(tmp_path):
    doc = GOLDEN_DIR / "relabelled_five.json"
    assert run_cli("dual", str(doc), "five", "--dot", "--out", str(tmp_path / "five.dot")).returncode == 0
    assert run_cli("canext", str(doc), "five").returncode == 0
    assert run_cli("verify", str(doc), "collapse", "--out", str(tmp_path / "r.json")).returncode == 0
    proc = run_cli("canext", str(GOLDEN_DIR / "relabelled_five_missing_cover.json"), "five")
    assert proc.returncode == 2
    assert proc.stderr == "error: algebras[0]: pair has no least upper bound; witness=('join', 8, 12)\n"


def test_dual_lists_points_deterministically():
    proc = run_cli("dual", str(SAMPLE), "four")
    assert proc.returncode == 0
    assert "points: 2" in proc.stdout
    assert "u0: principal ultrafilter at atom {0}" in proc.stdout
    again = run_cli("dual", str(SAMPLE), "four")
    assert again.stdout == proc.stdout


def test_dual_of_degenerate_algebra_exits_2(tmp_path):
    doc = tmp_path / "deg.json"
    doc.write_text('{"algebras":[{"name":"one","powerset":0}]}')
    proc = run_cli("dual", str(doc), "one")
    assert proc.returncode == 2


def test_dual_unknown_name_exits_2():
    proc = run_cli("dual", str(SAMPLE), "nonexistent")
    assert proc.returncode == 2
    assert "nonexistent" in proc.stderr


def test_dual_dot_output(tmp_path):
    out = tmp_path / "hasse.dot"
    proc = run_cli("dual", str(SAMPLE), "four", "--dot", "--out", str(out))
    assert proc.returncode == 0
    text = out.read_text()
    assert text.startswith('digraph "four"')
    assert "e0 -> e1" in text


@pytest.mark.parametrize("document", [str(SAMPLE), "missing-document.json"])
def test_dual_dot_without_out_is_a_usage_error_before_loading(document):
    # the missing document shows that the arguments are judged before loading
    proc = run_cli("dual", document, "four", "--dot")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "usage error: --dot requires --out PATH\n"


@pytest.mark.parametrize("document", [str(SAMPLE), "missing-document.json"])
def test_dual_out_without_dot_is_a_usage_error_before_loading(tmp_path, document):
    out = tmp_path / "hasse.dot"
    proc = run_cli("dual", document, "four", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "usage error: --out requires --dot\n"
    assert not out.exists()


def test_canext_summary(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(
        '{"algebras":[{"name":"b1","powerset":1},{"name":"b3","powerset":3},'
        '{"name":"b4","powerset":4}]}'
    )
    proc = run_cli("canext", str(doc), "b3")
    assert proc.returncode == 0
    assert "points: 3" in proc.stdout
    assert "extension size: 8" in proc.stdout
    assert "dense: pass" in proc.stdout
    assert "compact: pass" in proc.stdout

    assert "points: 1" in run_cli("canext", str(doc), "b1").stdout
    assert "extension size: 16" in run_cli("canext", str(doc), "b4").stdout


def test_verify_all_two_atoms(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--all", "--max-atoms", "2", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    homs = [i for i in payload["instances"] if i["descriptor"]["kind"] == "hom"]
    assert len(homs) == 8
    verdicts = {
        c["verdict"] for inst in payload["instances"] for c in inst["checks"]
    }
    assert verdicts == {"pass"}


def test_verify_named_hom_passes():
    proc = run_cli("verify", str(SAMPLE), "identity_four")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["instances"][0]["descriptor"]["name"] == "identity_four"


def test_verify_report_is_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("verify", str(SAMPLE), "collapse_four_to_two", "--out", str(out1)).returncode == 0
    assert run_cli("verify", str(SAMPLE), "collapse_four_to_two", "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_usage_errors_exit_2():
    assert run_cli("verify", str(SAMPLE), "identity_four", "--all").returncode == 2
    assert run_cli("verify", "--all").returncode == 2
    assert run_cli("verify", "--all", "--max-atoms", "2", "--seed", "1").returncode == 2
    assert run_cli("verify").returncode == 2
    assert run_cli("verify", str(SAMPLE)).returncode == 2
    assert run_cli("frobnicate").returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("--max-atoms", "0"),
        ("--max-atoms", "-1"),
        ("--max-atoms", "0", "--seed", "1", "--count", "5"),
        ("--max-atoms", "2", "--seed", "1", "--count", "0"),
        ("--max-atoms", "2", "--seed", "1", "--count", "-3"),
    ],
    ids=["max_atoms_0", "max_atoms_negative", "sampled_max_atoms_0", "count_0", "count_negative"],
)
def test_verify_all_out_of_range_exits_2(args):
    proc = run_cli("verify", "--all", *args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage error: ")
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("--max-atoms", str(MAX_HOM_ATOMS + 1)),
        ("--max-atoms", str(MAX_HOM_ATOMS + 1), "--seed", "0", "--count", "1"),
        ("--max-atoms", str(MAX_HOM_ATOMS + 1), "--seed", "1", "--count", "1"),
        ("--max-atoms", "40", "--seed", "3", "--count", "2"),
    ],
    ids=["exhaustive", "sampled_seed_0", "sampled_seed_1", "sampled_far_above"],
)
def test_verify_all_above_the_hom_cap_exits_2_before_any_work(monkeypatch, capsys, args):
    def no_work(*_):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli, "exhaustive_suite", no_work)
    assert main(["verify", "--all", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: --max-atoms must be between 1 and {MAX_HOM_ATOMS}\n"


def test_verify_all_at_the_hom_cap_is_accepted():
    proc = run_cli("verify", "--all", "--max-atoms", str(MAX_HOM_ATOMS), "--seed", "0", "--count", "1")
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["instances"]) == MAX_HOM_ATOMS + 1


@pytest.mark.parametrize("error", [InvariantViolation, NoClopenPreimage, NoExtension])
def test_library_bug_in_the_document_parser_exits_3(monkeypatch, capsys, error):
    def broken(*args):
        raise error("seeded library bug")

    monkeypatch.setattr(documents, "validate_hom", broken)
    assert main(["verify", str(SAMPLE), "identity_four"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: seeded library bug\n"


@pytest.mark.parametrize("error", [InvariantViolation, NoClopenPreimage, NoExtension])
def test_library_bug_exits_3_without_traceback(monkeypatch, capsys, error):
    def broken(*args):
        raise error("seeded library bug")

    monkeypatch.setattr(harness, "sole_extension", broken)
    assert main(["verify", str(SAMPLE), "identity_four"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: seeded library bug\n"


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ("--max-atoms", "3"),
            "f5859ada234ffac3d5ddd444bd87e9ead59399f153da2f6cb4fb256cc4c91041",
        ),
        (
            ("--max-atoms", "2", "--seed", "5", "--count", "300"),
            "17a88da7ca72265854910f08d4ccee53bd27b0e0eb62573a7b6bcfe123d53755",
        ),
        (
            # the certificate: every hom up to 4 atoms
            ("--max-atoms", "4"),
            "86db70c76958deecf18e3a59c440b2ba13d52813a52fd2b32601cdddf92cdc7f",
        ),
        (
            ("--max-atoms", "4", "--seed", "7", "--count", "2000"),
            "3a4569ef1df03f09d130ce1eded4377844fdbb38bfbfba6ade3df22d8ce9d3f8",
        ),
    ],
    ids=["exhaustive_3", "sampled_2", "exhaustive_4", "sampled_4"],
)
def test_verify_all_report_file_is_pinned(tmp_path, args, digest):
    # pinned from report files written by json.dumps of the whole payload
    out = tmp_path / "report.json"
    assert run_cli("verify", "--all", *args, "--out", str(out)).returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_writing_a_report_holds_no_copy_of_its_text(tmp_path):
    report = harness.exhaustive_suite(3, sample=(7, 2000))
    text = report_json(report, "d")
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        cli.write_pieces(cli._report_pieces(report, "d"), str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == text
    # building the text whole held about three copies of it
    assert peak < len(text) / 10


def test_verify_json_out_writes_the_same_bytes_to_the_file_and_stdout(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "stonecheck", "verify", "--all", "--max-atoms", "3",
         "--seed", "7", "--count", "500", "--json", "--out", str(out)],
        capture_output=True,
        check=False,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == out.read_bytes()
    assert json.loads(proc.stdout)["instances"]


def test_a_stdout_reader_that_stops_early_leaves_the_exit_code_and_the_out_file(tmp_path):
    # the 2.7 MB report overfills the pipe, so the writer meets the closed end
    out, err = tmp_path / "report.json", tmp_path / "stderr"
    with open(err, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "stonecheck", "verify", "--all", "--max-atoms", "4",
             "--seed", "7", "--count", "2000", "--json", "--out", str(out)],
            stdout=subprocess.PIPE,
            stderr=stderr,
        )
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        assert proc.wait(timeout=300) == 0
    assert err.read_bytes() == b""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3a4569ef1df03f09d130ce1eded4377844fdbb38bfbfba6ade3df22d8ce9d3f8"
    )


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--all", "--max-atoms", "2", "--json"),
        ("verify", str(SAMPLE), "identity_four"),
        ("dual", str(SAMPLE), "four", "--dot"),
        ("diagram", str(SAMPLE), "identity_four"),
    ],
    ids=["verify_all", "verify_named", "dual_dot", "diagram"],
)
def test_an_out_path_in_a_missing_directory_exits_2(tmp_path, args):
    out = str(tmp_path / "missing" / "out")
    proc = run_cli(*args, "--out", out)
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: cannot write {out!r}: [Errno 2] No such file or directory: {out!r}\n"
    )
    if args[0] != "dual":  # dual prints its listing before it writes the DOT file
        assert proc.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("dual", str(SAMPLE), "four"),
        ("canext", str(SAMPLE), "four"),
        ("verify", "--all", "--max-atoms", "2", "--out", "{out}"),
        ("verify", str(SAMPLE), "identity_four"),
        ("diagram", str(SAMPLE), "identity_four"),
        ("verify", "--all", "--max-atoms", "2", "--json", "--out", "{out}"),
    ],
    ids=["dual", "canext", "verify_all_out", "verify_named", "diagram", "verify_all_json_out"],
)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_leaves_the_exit_code_and_stderr_clean(tmp_path, args, unbuffered):
    # the read end is closed before the child starts, so any write or flush
    # of stdout meets a broken pipe, at once or at exit; every command here
    # succeeds, so its own exit code is 0
    out = tmp_path / "report.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stonecheck", *(a.format(out=out) for a in args)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            check=False,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
    if "--out" in args:
        assert json.loads(out.read_text(encoding="utf-8"))["instances"]


def test_a_document_that_is_not_utf8_exits_2(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"algebras": [{"name": "\u00e9", "powerset": 1}]}'.encode("latin-1"))
    proc = run_cli("canext", str(path), "a")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot read document: 'utf-8' codec can't decode")
    assert "Traceback" not in proc.stderr


def test_a_document_nested_too_deeply_is_a_parse_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = run_cli("canext", str(path), "a")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: JSON nested too deeply: ")
    assert "Traceback" not in proc.stderr
    with pytest.raises(ParseError, match="nested too deeply"):
        documents.parse_document('{"algebras": ' + "[" * 100_000)


_TEXT = st.text(alphabet=st.sampled_from('ab \n"\\/\t\u00e9\u2203\U0001d54a'), max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)
_CHECK = st.builds(
    CheckResult,
    _TEXT,
    st.sampled_from(["pass", "fail"]),
    st.none() | st.dictionaries(_TEXT, _JSON, max_size=3),
)


@st.composite
def _reports(draw):
    """Reports whose instances share check lists, as repeated sampled draws do."""
    pool = draw(st.lists(st.lists(_CHECK, max_size=3), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=5))
    descriptors = st.dictionaries(_TEXT, _JSON, max_size=3)
    return VerificationReport(
        [InstanceReport(draw(descriptors), pool[k], draw(st.integers(0, 9))) for k in picks]
    )


@settings(max_examples=100, deadline=None)
@given(_reports(), _TEXT)
def test_report_json_matches_whole_payload_encoding(report, digest):
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "input_digest": digest,
        "instances": report_jsonable(report),
    }
    assert report_json(report, digest) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_report_json_reuses_witness_free_rows_across_lists():
    # distinct check lists (as in the exhaustive tier) that repeat the same
    # witness-free rows, with witnessed rows of the same name in between
    lists = [
        [CheckResult("a", "pass"), CheckResult("b", "fail", {"k": [1, "\n"]})],
        [CheckResult("a", "pass"), CheckResult("b", "pass")],
        [CheckResult("b", "fail", {"k": 2}), CheckResult("a", "pass"), CheckResult("b", "fail")],
        [],
    ]
    report = VerificationReport([InstanceReport({"i": i}, checks) for i, checks in enumerate(lists)])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "input_digest": "d",
        "instances": report_jsonable(report),
    }
    assert report_json(report, "d") == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "descriptor",
    [
        {},
        {"kind": "hom", "source_atoms": 4, "target_atoms": 2, "atom_function": [3, 0]},
        {"name": "h\n\"\u00e9\U0001d54a", "atom_function": [], "sample_index": -2**70},
        {"flag": True},
        {"ratio": 0.5, "kind": "x"},
        {"atom_function": [1, False]},
        {"nested": {"a": [1]}},
        {"x": None},
        {1: 2, 0: 3},
    ],
    ids=["empty", "hom", "strings_and_big_ints", "bool", "float", "bool_in_list", "nested", "null", "int_keys"],
)
def test_report_json_descriptor_matches_whole_payload_encoding(descriptor):
    report = VerificationReport([InstanceReport(descriptor, [CheckResult("a", "pass")])])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "input_digest": "d",
        "instances": report_jsonable(report),
    }
    assert report_json(report, "d") == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_verify_sampled_mode_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    args = ("verify", "--all", "--max-atoms", "3", "--seed", "7", "--count", "5")
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_diagram_matches_golden_file(tmp_path):
    out = tmp_path / "diagram.dot"
    proc = run_cli("diagram", str(SAMPLE), "collapse_four_to_two", "--out", str(out))
    assert proc.returncode == 0
    golden = (GOLDEN_DIR / "diagram_collapse_four_to_two.dot").read_bytes()
    assert out.read_bytes() == golden


def test_diagram_is_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "d1.dot", tmp_path / "d2.dot"
    run_cli("diagram", str(SAMPLE), "embed_two_in_four", "--out", str(out1))
    run_cli("diagram", str(SAMPLE), "embed_two_in_four", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_diagram_identity_tooltips():
    proc = run_cli("diagram", str(SAMPLE), "identity_four")
    assert proc.returncode == 0
    assert 'label="h_*" tooltip="0->0; 1->1"' in proc.stdout


def test_diagram_unwritable_path_exits_2(tmp_path):
    proc = run_cli(
        "diagram", str(SAMPLE), "identity_four", "--out", str(tmp_path)
    )
    assert proc.returncode == 2


def test_exit_code_mapping_for_failing_report():
    failing = VerificationReport(
        [
            InstanceReport(
                {"kind": "hom", "name": "synthetic"},
                [CheckResult("sigma_equals_double_dual", "fail", {"subset_mask": 1})],
            )
        ]
    )
    assert exit_code_for_report(failing) == 1
    passing = VerificationReport(
        [InstanceReport({"kind": "hom"}, [CheckResult("anything", "pass")])]
    )
    assert exit_code_for_report(passing) == 0
    # only "pass" passes: a verdict outside pass/fail cannot read as passing
    mistyped = VerificationReport(
        [InstanceReport({"kind": "hom"}, [CheckResult("anything", "info")])]
    )
    assert exit_code_for_report(mistyped) == 1


def test_report_json_envelope():
    report = VerificationReport(
        [InstanceReport({"kind": "hom"}, [CheckResult("x", "pass")])]
    )
    payload = json.loads(report_json(report, "digest123"))
    assert payload["input_digest"] == "digest123"
    assert payload["tool_version"]
    assert payload["instances"][0]["timing_ms"] == 0


def test_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert main(["canext", str(SAMPLE), "two"]) == 0
    assert main(["dual", str(SAMPLE), "four"]) == 0
    out = capsys.readouterr().out
    assert "extension size: 2" in out and "dual space of four" in out


def test_main_callable_in_process(capsys):
    code = main(["canext", str(SAMPLE), "two"])
    assert code == 0
    out = capsys.readouterr().out
    assert "points: 1" in out
    assert "extension size: 2" in out


POWERSET_ONE = {"name": "a", "powerset": 1}


@pytest.mark.parametrize(
    "document",
    [
        {"algebras": [POWERSET_ONE], "homs": [{"name": "h", "source": ["a"], "target": "a", "map": []}]},
        {"algebras": [POWERSET_ONE], "homs": [{"name": "h", "source": "a", "target": ["a"], "map": []}]},
        {"algebras": [POWERSET_ONE, {"name": "b", "ref": ["a"]}]},
        {"algebras": 5},
        {"algebras": [POWERSET_ONE], "homs": 5},
        {"algebras": [{"name": "a", "powerset": True}]},
        {"algebras": [{"name": "a", "carrier": ["x"], "leq": 5, "complement": [["x", "x"]]}]},
    ],
    ids=["list_source", "list_target", "list_ref", "algebras_int", "homs_int", "bool_powerset", "int_leq"],
)
def test_malformed_document_exits_2_without_traceback(tmp_path, document):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    proc = run_cli("dual", str(path), "a")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


# powersets 1 and 5 and a hom up whose target lies above the hom cap
ABOVE_THE_HOM_CAP = {
    "algebras": [{"name": "one", "powerset": 1}, {"name": "five", "powerset": 5}],
    "homs": [
        {"name": "up", "source": "one", "target": "five",
         "atom_map": [[f"{{{q}}}", "{0}"] for q in range(5)]},
    ],
}


def test_every_entry_point_honours_the_one_hom_cap(tmp_path):
    path = tmp_path / "up.json"
    path.write_text(json.dumps(ABOVE_THE_HOM_CAP))
    message = f"error: diagram construction capped at {MAX_HOM_ATOMS} atoms; witness=(1, 5)\n"
    dot = tmp_path / "d.dot"
    for args in (("verify", str(path), "up"), ("diagram", str(path), "up", "--out", str(dot))):
        proc = run_cli(*args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)
    assert not dot.exists()

    up = documents.parse_document(path.read_text()).hom("up")
    five = up.target
    with pytest.raises(BoundExceeded):
        all_homs(five, up.source)
    with pytest.raises(BoundExceeded):
        harness.build_diagram(up)
    for sample in (None, (0, 1)):
        with pytest.raises(BoundExceeded):
            harness.exhaustive_suite(five.atom_count, sample=sample)
