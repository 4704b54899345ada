"""Seeded faults reach a check that fails.

Each ``sigma_extend`` mutant is the source of ``extension.sigma_extend``
with one edit, compiled in a copy of the extension module's namespace and
bound as the ``sigma_extend`` the harness reads, so the battery and the
shrinker both run it.  Under each mutant ``verify --all --max-atoms 3`` must
exit 1 with a failed ``sigma_equals_double_dual`` check whose witness
carries a shrunk instance, rather than stop on an internal error.

Each recognizer mutant is ``algebra._atom_encoding`` with one edit, compiled
the same way in a copy of the algebra module's namespace together with the
``boolean_algebra_of_up_sets`` that calls it.  Each must fail the named
pinned check of ``test_powerset_recognition`` that ``RECOGNIZER_MUTANTS``
lists for it: the mutant accepts an order that is not a powerset order, so
it no longer names the generic chain's witness.
"""

import inspect
import json

import pytest

import stonecheck.algebra as algebra
import stonecheck.extension as extension
import stonecheck.harness as harness
import test_powerset_recognition as recognition
from stonecheck.cli import main

# name -> (original line, replacement)
MUTANTS = {
    "drop_last_filter": (
        "for F in all_filters(src.lattice):",
        "for F in all_filters(src.lattice)[:-1]:",
    ),
    "flip_subset_test": ("if inter1 & ~A == 0:", "if inter1 & ~A != 0:"),
    # phi_table is shared, so the mutant perturbs a copy of it
    "stray_phi2_point": (
        "phi2 = phi_table(dst)",
        "phi2 = list(phi_table(dst))\n    phi2[1] |= 1 << (n2 - 1)",
    ),
}


def compiled_sigma_extend(original: str, replacement: str):
    source = inspect.getsource(extension.sigma_extend)
    assert source.count(original) == 1, "the mutated line is no longer in sigma_extend"
    namespace = dict(vars(extension))
    code = compile(source.replace(original, replacement), extension.__file__, "exec")
    exec(code, namespace)
    return namespace["sigma_extend"]


def run_suite(monkeypatch, tmp_path, sigma_extend) -> tuple[int, dict]:
    monkeypatch.setattr(harness, "sigma_extend", sigma_extend)
    out = tmp_path / "report.json"
    code = main(["verify", "--all", "--max-atoms", "3", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_unmutated_copy_passes(monkeypatch, tmp_path, capsys):
    line = MUTANTS["flip_subset_test"][0]
    code, _ = run_suite(monkeypatch, tmp_path, compiled_sigma_extend(line, line))
    assert code == 0
    assert capsys.readouterr().err == ""


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
    source = inspect.getsource(algebra._atom_encoding)
    assert source.count(original) == 1, "the mutated line is no longer in _atom_encoding"
    namespace = dict(vars(algebra))
    for source in (
        source.replace(original, replacement),
        inspect.getsource(algebra.boolean_algebra_of_up_sets),
    ):
        exec(compile(source, algebra.__file__, "exec"), namespace)
    return namespace["boolean_algebra_of_up_sets"]


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
