"""Seeded faults in the filter-formula extension reach the check battery.

Each mutant is the source of ``extension.sigma_extend`` with one edit,
compiled in a copy of the extension module's namespace and bound as the
``sigma_extend`` the harness reads, so the battery and the shrinker both
run it.  Under each mutant ``verify --all --max-atoms 3`` must exit 1 with
a failed ``sigma_equals_double_dual`` check whose witness carries a shrunk
instance, rather than stop on an internal error.
"""

import inspect
import json

import pytest

import stonecheck.extension as extension
import stonecheck.harness as harness
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
