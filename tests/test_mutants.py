"""Seeded faults reach a check that fails.

Each ``sigma_extend`` mutant is the source of ``extension.sigma_lanes``, the
block function behind ``sigma_extend``, with one edit, compiled in a copy of
the extension module's namespace and bound wherever the package binds
``sigma_lanes``, so the battery's blocks and the shrinker's blocks of one
both run it.  Under each mutant ``verify --all --max-atoms 3``
must exit 1 with a failed ``sigma_equals_double_dual`` check whose witness
carries a shrunk instance, rather than stop on an internal error.  Every
mutant is compiled at its function's own lines of the module file, so its
traceback points into the function.

``sigma_lanes`` scatters each filter's image to the entry of its embedded
intersection with ``table[inter1] |= inter2``.  Plain assignment in its
place (``table[inter1] = inter2``) is an equivalent mutant, so none is
listed: every filter of a finite Boolean algebra is principal, generated by
the meet of its members, and its embedded intersection is the Stone
embedding of that generator, which is injective.  No two filters therefore
share ``inter1``, and no entry is scattered to twice.

Each fast-path mutant edits one line of a block-at-a-time step of the
diagram path, the extension search, the battery, the Stone embedding, the
homomorphism validator or the report encoder, each the same fault in every
lane of a block, compiled the same way and
bound wherever the package binds the original; an ``@object_cache``
function is compiled under a fresh cache slot, so that it never reads the
table the original cached on an algebra.  ``FAST_PATH_MUTANTS`` names the
check that must fail under each: a battery check over
``exhaustive_suite(3)``, or one of ``NAMED_CHECKS``, which are mostly tests
of the other modules run as they are, and fail by an assertion or by a
library error.  ``validate_hom`` read without the source reordering is
invisible to the battery, whose algebras are all powersets with element
index equal to atom mask; the tests over shuffled presentations kill it.
Some shortcuts have equivalent mutants,
which are not listed: a prefilter or a block comparison made stricter (the
lemma's ``& ~`` read as ``|``, say) only sends more lanes to the literal
scan, which finds the same witness or none.  The premise mutants make the
battery's one-to-one or onto test of the homs always false, which no check
can see, since a false premise passes its check; the premise counts that
``verify --all`` checks against their closed forms catch them, as an
internal error.  The kill matrix test
runs every mutant against every check and prints the matrix; README's
table "What each check can catch" lists, per battery check, the mutants
that fail it there, and is checked against it.

Each recognizer mutant is ``algebra._atom_encoding`` with one edit, compiled
the same way in a copy of the algebra module's namespace together with the
``boolean_algebra_of_up_sets`` that calls it.  Each must fail the named
pinned check of ``test_powerset_recognition`` that ``RECOGNIZER_MUTANTS``
lists for it: the mutant accepts an order that is not a powerset order, so
it no longer names the generic chain's witness.  These are checked against
pinned orders, not the battery, and are not in the kill matrix.
"""

import hashlib
import inspect
import itertools
import json
import random
import re
from pathlib import Path

import pytest

import stonecheck.algebra as algebra
import stonecheck.checks as checks
import stonecheck.cli as cli
import stonecheck.compactification as compactification
import stonecheck.duality as duality
import stonecheck.extension as extension
import stonecheck.harness as harness
import test_battery_faults as faults
import test_compactification
import test_powerset_recognition as recognition
import test_table_oracles as oracles
import test_validation_oracles as validation
from helpers import identity_hom
from stonecheck.cli import main
from stonecheck.errors import NotContinuous, StonecheckError

# name -> (original line, replacement)
MUTANTS = {
    # the scatter skips the last filter of ``all_filters``
    "drop_last_filter": (
        "for inter1, inter2 in zip(inter1s, inter2s):",
        "for inter1, inter2 in zip(inter1s[:-1], inter2s):",
    ),
    # the zeta transform's subset step, run on the entries without the point
    "flip_subset_test": (
        "lanes |= lanes << shift & holds_point",
        "lanes |= lanes >> shift & ~holds_point",
    ),
    # phi_table is shared, so the mutant perturbs a copy of it
    "stray_phi2_point": (
        "phi2 = phi_table(dst)",
        "phi2 = list(phi_table(dst))\n    phi2[1] |= 1 << (dst.atom_count - 1)",
    ),
}


MUTANT_SLOTS = itertools.count()


def fresh_object_cache(func):
    """``algebra.object_cache`` under a slot no other function uses, so a
    mutant never reads what the original or another mutant cached."""
    func.__qualname__ += f"<mutant {next(MUTANT_SLOTS)}>"
    return algebra.object_cache(func)


def placed_source(function) -> str:
    """The source of ``function`` after a blank line for each line above it
    in its module, so that code compiled from it keeps the module's line
    numbers and a mutant's traceback points into the function."""
    lines, start = inspect.getsourcelines(function)
    return "\n" * (start - 1) + "".join(lines)


def compiled(module, name: str, original: str, replacement: str):
    """``module.name`` with its one ``original`` line replaced, compiled in a
    copy of the module's namespace (an ``@object_cache`` function is cached
    under a fresh slot)."""
    source = placed_source(getattr(module, name))
    assert source.count(original) == 1, f"the mutated line is no longer in {name}"
    namespace = dict(vars(module), object_cache=fresh_object_cache)
    exec(compile(source.replace(original, replacement), module.__file__, "exec"), namespace)
    return namespace[name]


def compiled_sigma_extend(original: str, replacement: str):
    return compiled(extension, "sigma_lanes", original, replacement)


def run_suite(monkeypatch, tmp_path, sigma_lanes) -> tuple[int, dict]:
    install(monkeypatch, extension, "sigma_lanes", sigma_lanes)
    out = tmp_path / "report.json"
    code = main(["verify", "--all", "--max-atoms", "3", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_unmutated_copy_passes(monkeypatch, tmp_path, capsys):
    line = MUTANTS["flip_subset_test"][0]
    code, _ = run_suite(monkeypatch, tmp_path, compiled_sigma_extend(line, line))
    assert code == 0
    assert capsys.readouterr().err == ""


def test_failing_exhaustive_report_file_is_pinned(monkeypatch, tmp_path, capsys):
    # every hom fails with witnesses of its own, and each instance is freed
    # once written, so a checks text cached by the identities of the
    # CheckResult objects could be served for a later list that reuses them
    install(monkeypatch, extension, "sigma_lanes", compiled_sigma_extend(*MUTANTS["flip_subset_test"]))
    out = tmp_path / "report.json"
    assert main(["verify", "--all", "--max-atoms", "3", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("59 instances, 625 checks: COUNTEREXAMPLE FOUND\n", "")
    # pinned from the report written before instances were streamed
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d7a6d46005f18f18fa67272836822e5f26acf24bd18c960bf96abf7c7d78839b"
    )


@pytest.mark.parametrize("name, killed", [
    ("drop_last_filter", 3),
    ("flip_subset_test", 56),
    ("stray_phi2_point", 16),
])
def test_sigma_mutant_fails_the_battery_with_a_shrunk_witness(
    monkeypatch, tmp_path, capsys, name, killed
):
    code, report = run_suite(monkeypatch, tmp_path, compiled_sigma_extend(*MUTANTS[name]))
    assert code == 1
    assert capsys.readouterr().err == ""
    failed = [
        check
        for inst in report["instances"]
        for check in inst["checks"]
        if check["name"] == "sigma_equals_double_dual" and check["verdict"] == "fail"
    ]
    assert len(failed) == killed
    for check in failed:
        shrunk = check["witness"]["shrunk"]
        assert set(shrunk) == {"source_atoms", "target_atoms", "atom_function"}
        assert len(shrunk["atom_function"]) == shrunk["target_atoms"]


def test_every_shrunk_witness_is_a_failing_instance(monkeypatch):
    mutant = compiled_sigma_extend(*MUTANTS["flip_subset_test"])
    install(monkeypatch, extension, "sigma_lanes", mutant)
    witnesses = [
        check.witness["shrunk"]
        for inst in harness.exhaustive_suite(3).instances
        for check in inst.checks
        if check.name == "sigma_equals_double_dual" and check.verdict == "fail"
    ]
    assert len(witnesses) == 56
    for shrunk in witnesses:
        function = shrunk["atom_function"]
        assert all(0 <= p < shrunk["source_atoms"] for p in function)
        h = algebra.hom_from_atom_function(
            algebra.powerset_algebra(shrunk["source_atoms"]),
            algebra.powerset_algebra(shrunk["target_atoms"]),
            tuple(function),
        )
        assert mutant([h]) != harness.build_diagram(h).double_dual


# name -> (original line, replacement, the pinned check that kills it)
RECOGNIZER_MUTANTS = {
    "skip_last_up_set": (
        "tuple(map(above.__getitem__, masks)) != up",
        "tuple(map(above.__getitem__, masks))[:-1] != up[:-1]",
        recognition.check_corrupted_last_row,
    ),
    "any_atom_count": (
        "if n != 1 << len(atoms):\n        return None",
        "pass",
        recognition.check_three_atoms_under_a_top,
    ),
    "skip_bijection": (
        "len(set(masks)) != n or ",
        "",
        recognition.check_two_elements_with_one_mask,
    ),
}


def compiled_constructor(original: str, replacement: str):
    source = placed_source(algebra._atom_encoding)
    assert source.count(original) == 1, "the mutated line is no longer in _atom_encoding"
    namespace = dict(vars(algebra))
    for source in (
        source.replace(original, replacement),
        placed_source(algebra.boolean_algebra_of_up_sets),
    ):
        exec(compile(source, algebra.__file__, "exec"), namespace)
    return namespace["boolean_algebra_of_up_sets"]


def raised_at(call) -> tuple[str, int]:
    """The file and line of the frame that raises ZeroDivisionError under ``call``."""
    with pytest.raises(ZeroDivisionError) as info:
        call()
    tb = info.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_filename, tb.tb_lineno


@pytest.mark.parametrize("mutated", ["sigma_extend", "_atom_encoding"])
def test_a_mutant_raises_at_the_module_line_it_replaced(mutated):
    # its traceback points into the function, not into the module docstring
    four = algebra.powerset_algebra(2)
    function, original, call = {
        "sigma_extend": (
            extension.sigma_lanes,
            "phi2 = phi_table(dst)",
            lambda *edit: compiled_sigma_extend(*edit)([identity_hom(four)]),
        ),
        "_atom_encoding": (
            algebra._atom_encoding,
            'masks = packed.to_bytes(n, "little")',
            lambda *edit: compiled_constructor(*edit)(
                *recognition.shuffled_powerset(2, random.Random(0))
            ),
        ),
    }[mutated]
    lines, start = inspect.getsourcelines(function)
    line = start + next(i for i, text in enumerate(lines) if original in text)
    raised = raised_at(lambda: call(original, "raise ZeroDivisionError"))
    assert raised == (inspect.getsourcefile(function), line)


def test_unmutated_constructor_copy_passes_every_pinned_check():
    line = RECOGNIZER_MUTANTS["skip_bijection"][0]
    build = compiled_constructor(line, line)
    for check in recognition.PINNED:
        check(build)


@pytest.mark.parametrize("name", list(RECOGNIZER_MUTANTS))
def test_recognizer_mutant_fails_its_pinned_check(name):
    original, replacement, check = RECOGNIZER_MUTANTS[name]
    build = compiled_constructor(original, replacement)
    with pytest.raises(AssertionError):
        check(build)


# name -> (module, function, original line, replacement, the check that kills it)
FAST_PATH_MUTANTS = {
    # continuity tested on the first open only, which is always the empty set
    "continuity_first_open": (
        duality,
        "_continuous",
        "opens = topology(target)",
        "opens = topology(target)[:1]",
        "coarse_map_is_not_continuous",
    ),
    # the search's maps keep the preimage table of the complements
    "handed_preimages_reversed": (
        compactification,
        "_forced_lanes",
        "yield ContinuousLanes(space, target, cells, pre, lanes), passed",
        "yield ContinuousLanes(space, target, cells, b''.join("
        "[pre[j : j + size][::-1] for j in range(0, len(pre), size)]), lanes), passed",
        "sigma_equals_double_dual",
    ),
    # the search yields each map it makes twice
    "duplicate_yield": (
        compactification,
        "_forced_lanes",
        "yield ContinuousLanes(space, target, cells, pre, lanes), passed",
        "yield ContinuousLanes(space, target, cells, pre, lanes), passed\n"
        "            yield ContinuousLanes(space, target, cells, pre, lanes), passed",
        "unique_continuous_extension",
    ),
    # the search moves each forced value to the next target point
    "forced_value_shifted": (
        compactification,
        "_forced_lanes",
        "table[point] = values.translate(clamped)",
        "table[point] = values.translate(bytes((v + 1) % n for v in range(n)).ljust(256, b'\\0'))",
        "extension_square_commutes",
    ),
    # the lift reads the indicators of the source points in reverse order
    "lift_indicators_reversed": (
        compactification,
        "_lift_lanes",
        "for indicator in bx.indicators:",
        "for indicator in bx.indicators[::-1]:",
        "lift_paths_agree",
    ),
    # the forward image of a point set is taken under the reversed table
    "forward_images_reversed": (
        checks,
        "_forward_images",
        "return _subset_union_lanes(parts, lanes)",
        "return _subset_union_lanes(parts[::-1], lanes)",
        "forward_image_in_lifted_ultrafilter",
    ),
    # the lemma's prefilter compares the member rows with themselves
    "lemma_rows_against_themselves": (
        harness,
        "_lane_checks",
        "& ~held",
        '& ~int.from_bytes(needed, "little")',
        "every_check_fails_under_a_fault",
    ),
    # the isomorphism law is tested on the inverse read backwards, which
    # complements every entry
    "iso_inverse_reversed": (
        harness,
        "_lane_checks",
        "iso_ok = atom_additive(inverse, n2, n1)",
        "iso_ok = atom_additive(inverse[::-1], n2, n1)",
        "sigma_isomorphism_when_isomorphism",
    ),
    # the Stone embedding of the last element, top, is the empty set
    "phi_table_drops_top": (
        duality,
        "phi_table",
        "for a in range(algebra.size)\n    )",
        "for a in range(algebra.size - 1)\n    ) + (0,)",
        "embedded_elements_preserved",
    ),
    # atom images may overlap: the popcounts need not sum to n2
    "additive_without_popcount": (
        algebra,
        "atom_additive",
        "and sum(map(int.bit_count, parts)) == n2\n        and ",
        "and ",
        "raw_table_oracle",
    ),
    # the hom's law test reads each element index as its atom mask
    "hom_without_source_reordering": (
        algebra,
        "_hom_of_table",
        "by_mask = [masks[t[index[m]]] for m in range(n)]",
        "by_mask = [masks[v] for v in t]",
        "raw_table_oracle",
    ),
    # the battery's fast path is handed the full mask as the table's last entry
    "hom_law_without_full_mask": (
        algebra,
        "_lawless_lanes",
        "full = sigma[(size1 - 1) * lanes :]",
        "full = top",
        "small_table_hom_laws",
    ),
    # the encoder reuses the last checks text for a list with the same names
    "checks_key_by_names": (
        cli,
        "_report_pieces",
        "same = len(checks) == len(last[0]) and all(map(is_, checks, last[0]))",
        "same = [c.name for c in checks] == [c.name for c in last[0]]",
        "failing_report_is_pinned",
    ),
    # no hom is one-to-one, so sigma_injective_when_injective passes vacuously
    "injective_premise_never": (
        checks,
        "_premises",
        "return [d == elements for d in distinct], [d == size for d in distinct]",
        "return [False] * len(distinct), [d == size for d in distinct]",
        "premise_counts",
    ),
    # no hom is onto, so sigma_surjective_when_surjective passes vacuously
    "surjective_premise_never": (
        checks,
        "_premises",
        "return [d == elements for d in distinct], [d == size for d in distinct]",
        "return [d == elements for d in distinct], [False] * len(distinct)",
        "premise_counts",
    ),
}

PACKAGE = (algebra, duality, compactification, extension, checks, harness, cli)


def install(monkeypatch, module, name: str, function) -> None:
    """Bind ``function`` wherever the package binds ``module.name``."""
    original = getattr(module, name)
    for bound in PACKAGE:
        if getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, function)


def test_a_compiled_cached_function_gets_a_fresh_slot():
    # an unmutated copy of phi_table computes its own table on an algebra
    # whose table the original has already cached
    three = algebra.powerset_algebra(3)
    original = duality.phi_table(three)
    copy = compiled(duality, "phi_table", "algebra.size", "algebra.size")
    assert copy.slot != duality.phi_table.slot
    assert copy(three) == original and copy(three) is not original


def test_a_search_that_yields_a_table_twice_is_a_failed_check(monkeypatch, tmp_path, capsys):
    # two candidates are a counterexample to uniqueness, exit 1, not an
    # internal error; the other ten checks still pass on the first table
    module, name, original, replacement, _ = FAST_PATH_MUTANTS["duplicate_yield"]
    install(monkeypatch, module, name, compiled(module, name, original, replacement))
    out = tmp_path / "report.json"
    assert main(["verify", "--all", "--max-atoms", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    instances = json.loads(out.read_text())["instances"]
    homs = [inst for inst in instances if inst["descriptor"]["kind"] == "hom"]
    assert len(homs) == 8
    for inst in homs:
        failed = [c for c in inst["checks"] if c["verdict"] == "fail"]
        assert failed == [
            {"name": "unique_continuous_extension", "verdict": "fail", "witness": {"candidates": 2}}
        ]


def test_a_search_that_yields_no_table_is_an_internal_error(monkeypatch, capsys):
    # every block raises, and so does each hom when it runs alone
    monkeypatch.setattr(harness, "extension_candidates_lanes", lambda *args: [])
    assert main(["verify", "--all", "--max-atoms", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: no continuous extension satisfies the equation\n"


def check_coarse_map_is_not_continuous(monkeypatch, tmp_path, capsys):
    two = duality.discrete_space(("a", "b"))
    coarse = duality.FinStoneSpace(("x", "y"), (0b11,))
    with pytest.raises(NotContinuous) as info:
        duality.continuous_map(coarse, two, (0, 1))
    assert info.value.witness == 1


def check_premise_counts(monkeypatch, tmp_path, capsys):
    # verify --all checks the homs it finds one-to-one, onto and both
    # against the closed forms of the exhaustive suite
    out = tmp_path / "premises.json"
    code = main(["verify", "--all", "--max-atoms", "3", "--out", str(out)])
    capsys.readouterr()
    assert code == 0


# name -> check(monkeypatch, tmp_path, capsys); each raises when it fails
NAMED_CHECKS = {
    "coarse_map_is_not_continuous": check_coarse_map_is_not_continuous,
    "coarse_space_search": lambda *_: (
        test_compactification.test_search_keeps_only_the_continuous_tables_of_a_coarse_space()
    ),
    "arrow_preimage_tables": lambda *_: (
        oracles.test_every_arrow_keeps_the_preimage_table_of_its_own_point_table()
    ),
    "lemma_scan_witness": lambda *_: (
        oracles.test_forward_image_rows_give_the_scan_witness_on_faulty_diagrams()
    ),
    "every_check_fails_under_a_fault": lambda mp, *_: (
        faults.test_every_check_fails_under_some_seeded_fault(mp)
    ),
    "failing_report_is_pinned": faults.test_failing_sampled_report_file_is_pinned,
    "raw_table_oracle": lambda *_: (
        validation.test_atom_additivity_is_the_pairwise_hom_laws_on_every_raw_table(2, 2)
    ),
    "small_table_hom_laws": lambda *_: (
        oracles.test_hom_law_fast_path_is_the_pair_loop_on_every_small_table(2, 2)
    ),
    "premise_counts": check_premise_counts,
}

# what a failing check raises: an assertion, pytest.raises seeing nothing,
# or a library error such as an InvariantViolation
FAILED = (AssertionError, pytest.fail.Exception, StonecheckError)


def battery_kills() -> dict[str, int]:
    """Failing instances of ``exhaustive_suite(3)`` per check name, or
    ``{"error": 1}`` when the suite stops on an error."""
    kills: dict[str, int] = {}
    try:
        report = harness.exhaustive_suite(3)
    except StonecheckError:
        return {"error": 1}
    for inst in report.instances:
        for check in inst.checks:
            if check.verdict == "fail":
                kills[check.name] = kills.get(check.name, 0) + 1
    return kills


def named_kills(monkeypatch, tmp_path, capsys) -> set[str]:
    killed = set()
    for name, check in NAMED_CHECKS.items():
        with monkeypatch.context() as mp:
            try:
                check(mp, tmp_path, capsys)
            except FAILED:
                killed.add(name)
    capsys.readouterr()
    return killed


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_catch_table() -> dict[str, set[str]]:
    """README's "What each check can catch": the mutants named in the last
    column of each row, keyed by the row's check, in table order."""
    text = README.read_text(encoding="utf-8").split("## What each check can catch\n", 1)[1]
    lines = itertools.dropwhile(lambda line: not line.startswith("|"), text.splitlines())
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines))[2:]
    cells = [row.strip("|").split("|") for row in rows]
    return {check.strip(" `"): set(re.findall(r"`(\w+)`", last)) for check, *_, last in cells}


def test_the_readme_table_lists_the_battery_and_known_mutants():
    table = readme_catch_table()
    checks = harness.full_hom_instance(identity_hom(algebra.powerset_algebra(2))).checks
    assert list(table) == [check.name for check in checks] == list(faults.BATTERY)
    named = set().union(*table.values())
    assert named <= MUTANTS.keys() | FAST_PATH_MUTANTS.keys()


def test_kill_matrix(monkeypatch, tmp_path, capsys):
    """Every mutant against every check, printed as a matrix; the program
    itself fails none of them, and each mutant fails at least its own."""
    mutants = {"(none)": None}
    for name, (original, replacement) in MUTANTS.items():
        mutants[name] = (extension, "sigma_lanes", original, replacement)
    mutants.update({name: entry[:4] for name, entry in FAST_PATH_MUTANTS.items()})
    rows = {}
    for name, entry in mutants.items():
        with monkeypatch.context() as mp:
            if entry is not None:
                install(mp, entry[0], entry[1], compiled(*entry))
            kills = battery_kills()
            kills.update(dict.fromkeys(named_kills(mp, tmp_path, capsys), "x"))
        rows[name] = kills
    columns = [
        c for c in (*faults.BATTERY, "error", *NAMED_CHECKS) if any(c in r for r in rows.values())
    ]
    width = max(map(len, rows))
    lines = ["kill matrix: failing instances of exhaustive_suite(3), x = named check fails"]
    lines += [f"  c{i} {column}" for i, column in enumerate(columns, 1)]
    lines.append(" " * width + "".join(f"{f'c{i}':>5}" for i in range(1, len(columns) + 1)))
    for name, kills in rows.items():
        lines.append(name.ljust(width) + "".join(f"{kills.get(c, '.'):>5}" for c in columns))
    with capsys.disabled():
        print("\n" + "\n".join(lines))
    assert rows.pop("(none)") == {}
    expected = {name: "sigma_equals_double_dual" for name in MUTANTS}
    expected.update({name: entry[4] for name, entry in FAST_PATH_MUTANTS.items()})
    for name, kills in rows.items():
        assert expected[name] in kills, name
    assert readme_catch_table() == {
        check: {name for name, kills in rows.items() if check in kills}
        for check in faults.BATTERY
    }
