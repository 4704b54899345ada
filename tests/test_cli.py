"""Command-line interface: listings, reports, DOT output, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import itertools
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stonecheck.cli as cli
import stonecheck.documents as documents
import stonecheck.harness as harness
from helpers import report_jsonable
from stonecheck import __version__
from stonecheck.cli import SCHEMA_VERSION, main, report_json
from stonecheck.algebra import MAX_ATOMS, all_homs
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
)

SAMPLE = Path(__file__).resolve().parents[1] / "src/stonecheck/data/sample_document.json"
GOLDEN_DIR = Path(__file__).resolve().parent / "data"
QUOTED = GOLDEN_DIR / "quoted_labels.json"


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


def test_relabelled_five_atom_document_with_two_complements_swapped_exits_2():
    # the complement laws are tested on atom masks; the witness is the
    # first (x, not-x) pair that the table scan named
    proc = run_cli("canext", str(GOLDEN_DIR / "relabelled_five_bad_complement.json"), "five")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: algebras[0]: x and not-x do not meet to bottom; witness=(1, 10)\n"


M3_DIAMOND = {
    "algebras": [
        {
            "name": "m3",
            "carrier": ["0", "a", "b", "c", "1"],
            "leq": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]],
            "complement": [["0", "1"], ["a", "b"], ["b", "c"], ["c", "a"], ["1", "0"]],
        }
    ]
}


def test_a_diamond_lattice_exits_2_with_its_distributive_witness(tmp_path):
    # M3 is a complemented lattice but not distributive: the plain triple
    # scan names a, meeting b join c, as its first witness
    doc = tmp_path / "m3.json"
    doc.write_text(json.dumps(M3_DIAMOND))
    proc = run_cli("canext", str(doc), "m3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: algebras[0]: distributive law fails; witness=(1, 2, 3)\n"


def test_relabelled_document_with_one_changed_map_pair_names_the_broken_law(capsys):
    # the table is not atom additive, so validate_hom's scan names the pair
    doc = GOLDEN_DIR / "relabelled_five_bad_map.json"
    assert main(["verify", str(doc), "collapse"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: homs[0]: meet not preserved; witness=(0, 3)\n"


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


# a quoted DOT string: anything but a quote or a backslash, or an escaped character
DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


def dot_strings(text: str) -> list[str]:
    """The text of every quoted string of a DOT file, un-escaped, asserting
    that no line leaves a quote open."""
    strings = []
    for line in text.splitlines():
        assert '"' not in DOT_STRING.sub("", line), line
        strings += [re.sub(r"\\(.)", r"\1", s) for s in DOT_STRING.findall(line)]
    return strings


def test_dot_escapes_quotes_and_backslashes_in_names_and_labels(tmp_path, capsys):
    hasse = tmp_path / "hasse.dot"
    assert main(["dual", str(QUOTED), 'four"\\', "--dot", "--out", str(hasse)]) == 0
    strings = dot_strings(hasse.read_text())
    assert strings[0] == 'four"\\'
    assert strings[1::2] == ["bot\\", 'x"y', '"right', 'top"\\']
    for hom, tip in [
        ('id"\\', 'bot\\->bot\\; x"y->x"y; "right->"right; top"\\->top"\\'),
        ('collapse"', 'bot\\->0\\; x"y->"1; "right->0\\; top"\\->"1'),
    ]:
        diagram = tmp_path / "diagram.dot"
        assert main(["diagram", str(QUOTED), hom, "--out", str(diagram)]) == 0
        strings = dot_strings(diagram.read_text())
        assert strings[0] == hom
        assert 'B1 = four"\\ (4 elements)' in strings
        assert tip in strings
    assert 'B2 = two\\ (2 elements)' in strings
    assert capsys.readouterr().err == ""


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
        ("--max-atoms", str(MAX_ATOMS + 1)),
        ("--max-atoms", str(MAX_ATOMS + 1), "--seed", "0", "--count", "1"),
        ("--max-atoms", str(MAX_ATOMS + 1), "--seed", "1", "--count", "1"),
        ("--max-atoms", "40", "--seed", "3", "--count", "2"),
    ],
    ids=["exhaustive", "sampled_seed_0", "sampled_seed_1", "sampled_far_above"],
)
def test_verify_all_above_the_hom_cap_exits_2_before_any_work(monkeypatch, capsys, args):
    def no_work(*_):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli, "suite_plan", no_work)
    assert main(["verify", "--all", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: --max-atoms must be between 1 and {MAX_ATOMS}\n"


def test_verify_all_at_the_hom_cap_is_accepted():
    proc = run_cli("verify", "--all", "--max-atoms", str(MAX_ATOMS), "--seed", "0", "--count", "1")
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["instances"]) == MAX_ATOMS + 1


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
        (
            # every hom up to 5 atoms: 5 704 instances, a 7.7 MB report
            ("--max-atoms", "5"),
            "1bad2435e2feacceeb64de8f4c1ee0c984cf78afd5422218a88475f79dded9ae",
        ),
    ],
    ids=["exhaustive_3", "sampled_2", "exhaustive_4", "sampled_4", "exhaustive_5"],
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
        stream = ((inst, None) for inst in report.instances)
        cli.write_pieces(cli._report_pieces(stream, "d", cli._Tally()), str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == text
    # building the text whole held about three copies of it
    assert peak < len(text) / 10


def test_verify_all_holds_at_most_one_hom_instance_at_a_time(monkeypatch, tmp_path, capsys):
    # each instance is written as it is made and freed once written; every
    # repeated draw takes the verdicts of its first, so the battery runs once
    # per distinct hom
    real = harness.full_hom_instance
    made = []

    def tracked(*args, **kwargs):
        assert [ref for ref in made if ref() is not None] == []
        inst = real(*args, **kwargs)
        made.append(weakref.ref(inst))
        return inst

    monkeypatch.setattr(harness, "full_hom_instance", tracked)
    out = tmp_path / "report.json"
    argv = ["verify", "--all", "--max-atoms", "3", "--seed", "7", "--count", "500"]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == "503 instances, 5509 checks: all passed\n"
    assert 1 < len(made) <= 56
    assert all(ref() is None for ref in made)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ba4b8ccc7a9d0fb7cc45e2d73b55a1c47e5ff8cc27402cacd1f2958a6361b84d"
    )


@pytest.mark.parametrize(
    "args",
    [
        ("--max-atoms", str(MAX_ATOMS + 1)),
        ("--max-atoms", "0"),
        ("--max-atoms", "3", "--seed", "1", "--count", "0"),
        ("--max-atoms", str(MAX_ATOMS + 1), "--seed", "1", "--count", "5"),
    ],
    ids=["above_cap", "no_atoms", "no_draws", "sampled_above_cap"],
)
@pytest.mark.parametrize("existing", [False, True], ids=["new_file", "existing_file"])
def test_a_range_error_exits_2_before_the_out_file_is_opened(tmp_path, capsys, args, existing):
    out = tmp_path / "report.json"
    if existing:
        out.write_text("kept\n")
    assert main(["verify", "--all", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")
    if existing:
        assert out.read_text() == "kept\n"
    else:
        assert not out.exists()


@pytest.mark.parametrize(
    "fault_at, digest",
    [
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (5, "82977861036e4d33757b1566b20b3efdf6d8c5e699517ce694cf0b833a647016"),
    ],
    ids=["first_instance", "fifth_instance"],
)
def test_a_library_bug_mid_run_exits_3_and_leaves_the_instances_before_it(
    monkeypatch, tmp_path, capsys, fault_at, digest
):
    # the report is written as the battery runs: the --out file keeps the
    # envelope head and every instance finished before the fault, with no
    # tail, so it does not parse; a fault at the first instance leaves it empty
    whole = tmp_path / "whole.json"
    argv = ["verify", "--all", "--max-atoms", "3"]
    assert main([*argv, "--out", str(whole)]) == 0
    real, calls = harness.full_hom_instance, itertools.count(1)

    def faulty(*args, **kwargs):
        if next(calls) == fault_at:
            raise InvariantViolation("seeded library bug")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "full_hom_instance", faulty)
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", "internal error: seeded library bug\n")
    text = out.read_text(encoding="utf-8")
    assert whole.read_text(encoding="utf-8").startswith(text)
    assert text.count('"descriptor": ') == fault_at - 1
    assert text == "" or text.endswith("\n    }")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_verify_all_shows_progress_on_a_terminal_once_a_second(monkeypatch, tmp_path, capsys):
    # the clock advances a quarter second per reading: the tally reads it
    # once when the run starts and once per instance
    out = tmp_path / "report.json"
    argv = ["verify", "--all", "--max-atoms", "2", "--out", str(out)]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    expected = out.read_bytes()
    ticks = itertools.count()
    monkeypatch.setattr(cli, "_clock", lambda: next(ticks) / 4)
    monkeypatch.setattr(sys.stderr, "isatty", lambda: True)
    assert main(argv) == 0
    assert capsys.readouterr() == (quiet.out, "4/10 instances\n8/10 instances\n")
    assert out.read_bytes() == expected
    # a named verify has no total and shows nothing; nor does a run on a
    # stderr that is not a terminal
    assert main(["verify", str(SAMPLE), "identity_four", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(sys.stderr, "isatty", lambda: False)
    assert main(argv) == 0
    assert capsys.readouterr() == quiet


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


@pytest.mark.parametrize("args", [("--help",), ("verify", "--help")], ids=["main", "verify"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_help_into_a_closed_stdout_exits_0_with_stderr_clean(args, unbuffered):
    # argparse's help goes through the one writer, which meets the broken
    # pipe itself instead of leaving it to the flush at interpreter exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stonecheck", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            check=False,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize(
    "args, usage",
    [(["--help"], "usage: stonecheck [-h]"), (["verify", "--help"], "usage: stonecheck verify")],
)
def test_help_is_printed_whole(capsys, args, usage):
    with pytest.raises(SystemExit) as info:
        main(args)
    assert info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(usage) and captured.out.endswith("\n")
    assert captured.err == ""


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
_CHECK = st.builds(CheckResult, _TEXT, st.none() | st.dictionaries(_TEXT, _JSON, max_size=3))


@st.composite
def _reports(draw):
    """Reports whose instances share check lists, as repeated sampled draws do."""
    pool = draw(st.lists(st.lists(_CHECK, max_size=3), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=5))
    descriptors = st.dictionaries(_TEXT, _JSON, max_size=3)
    return VerificationReport(
        [InstanceReport(draw(descriptors), pool[k]) for k in picks]
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
        [CheckResult("a"), CheckResult("b", {"k": [1, "\n"]})],
        [CheckResult("a"), CheckResult("b")],
        [CheckResult("b", {"k": 2}), CheckResult("a"), CheckResult("b", {})],
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
    report = VerificationReport([InstanceReport(descriptor, [CheckResult("a")])])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "input_digest": "d",
        "instances": report_jsonable(report),
    }
    assert report_json(report, "d") == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_a_mark_met_again_under_another_atom_function_is_encoded_afresh():
    # a mark's texts are held while its atom function's draws last; a mark
    # met again under another atom function belongs to another hom
    checks = [CheckResult("a")]
    instances = [
        InstanceReport({"kind": "hom", "atom_function": [0], "sample_index": 3}, checks),
        InstanceReport({"kind": "hom", "atom_function": [0], "sample_index": 5}, checks),
        InstanceReport({"kind": "hom", "atom_function": [1, 0], "sample_index": 8}, checks),
    ]
    stream = zip(instances, [3, 3, 3])
    text = "".join(cli._report_pieces(stream, "d", cli._Tally()))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "input_digest": "d",
        "instances": report_jsonable(VerificationReport(instances)),
    }
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"


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
                [CheckResult("sigma_equals_double_dual", {"subset_mask": 1})],
            )
        ]
    )
    passing = VerificationReport(
        [InstanceReport({"kind": "hom"}, [CheckResult("anything")])]
    )
    # a check with a witness fails, also an empty one
    empty_witness = VerificationReport(
        [InstanceReport({"kind": "hom"}, [CheckResult("anything", {})])]
    )
    # verify reads the exit code off the tally of the report it writes,
    # also when a list with the same names follows a passing one
    for instances, code in [
        (failing.instances, 1),
        (passing.instances, 0),
        (empty_witness.instances, 1),
        (passing.instances + empty_witness.instances, 1),
    ]:
        tally = cli._Tally()
        list(cli._report_pieces(((inst, None) for inst in instances), "d", tally))
        assert (0 if tally.passed else 1) == code


def test_report_json_envelope():
    report = VerificationReport(
        [InstanceReport({"kind": "hom"}, [CheckResult("x")])]
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


def cap_document(atoms: int) -> dict:
    """Powersets 1 and ``atoms`` and a hom ``up`` from the first into the second."""
    return {
        "algebras": [{"name": "one", "powerset": 1}, {"name": "top", "powerset": atoms}],
        "homs": [
            {"name": "up", "source": "one", "target": "top",
             "atom_map": [[f"{{{q}}}", "{0}"] for q in range(atoms)]},
        ],
    }


def test_every_entry_point_honours_the_one_hom_cap(tmp_path):
    # a hom into an algebra at the cap is verified and drawn
    path = tmp_path / "up.json"
    path.write_text(json.dumps(cap_document(MAX_ATOMS)))
    dot = tmp_path / "d.dot"
    for args in (("verify", str(path), "up"), ("diagram", str(path), "up", "--out", str(dot))):
        proc = run_cli(*args)
        assert (proc.returncode, proc.stderr) == (0, "")
    assert dot.exists()

    up = documents.parse_document(path.read_text()).hom("up")
    assert len(all_homs(up.target, up.source)) == MAX_ATOMS
    assert harness.full_hom_instance(up).passed

    # one atom more is a validation error before any hom is read
    above = tmp_path / "above.json"
    above.write_text(json.dumps(cap_document(MAX_ATOMS + 1)))
    message = (
        f"error: algebras[1]: powerset algebra capped at {MAX_ATOMS} atoms; "
        f"witness={MAX_ATOMS + 1}\n"
    )
    for args in (("verify", str(above), "up"), ("diagram", str(above), "up", "--out", str(dot))):
        dot.unlink(missing_ok=True)
        proc = run_cli(*args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)
        assert not dot.exists()
    for sample in (None, (0, 1)):
        with pytest.raises(BoundExceeded):
            harness.exhaustive_suite(MAX_ATOMS + 1, sample=sample)
