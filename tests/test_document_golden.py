"""Byte-identity guard for the document commands.

Pins the sha256 of everything ``dual --dot``, ``canext`` and ``verify``
produce (exit code, stdout, stderr and the written file) on the sample
document and on a seeded, shuffled abstract presentation of the 5-atom
powerset, so that the 32-element validation path runs on every command.
The digests were taken before the validators were rewritten row at a time.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from stonecheck.cli import main

SAMPLE = Path(__file__).resolve().parents[1] / "src/stonecheck/data/sample_document.json"


def shuffled_powerset_document(seed: int = 11, atoms: int = 5) -> str:
    """An abstract presentation of the powerset on ``atoms`` atoms, plus two
    small powersets and a hom between them.

    Labels, carrier order, covering pairs and complement pairs are shuffled
    with a fixed seed, so the carrier indices differ from the atom masks.
    """
    rng = random.Random(seed)
    size = 1 << atoms
    labels = [f"p{t}" for t in rng.sample(range(10 * size), size)]
    carrier = labels[:]
    rng.shuffle(carrier)
    covers = [
        [labels[m], labels[m | 1 << i]]
        for m in range(size)
        for i in range(atoms)
        if not m >> i & 1
    ]
    rng.shuffle(covers)
    complement = [[labels[m], labels[(size - 1) ^ m]] for m in range(size)]
    rng.shuffle(complement)
    return json.dumps(
        {
            "algebras": [
                {"name": "big", "carrier": carrier, "leq": covers, "complement": complement},
                {"name": "two", "powerset": 1},
                {"name": "four", "powerset": 2},
            ],
            "homs": [
                {"name": "embed", "source": "two", "target": "four",
                 "atom_map": [["{0}", "{0}"], ["{1}", "{0}"]]},
            ],
        },
        indent=1,
    ) + "\n"


def command_digest(capsys, tmp_path, argv, out_name=None) -> str:
    out = tmp_path / out_name if out_name else None
    code = main(argv + (["--out", str(out)] if out else []))
    captured = capsys.readouterr()
    written = out.read_text() if out else ""
    blob = json.dumps([code, captured.out, captured.err.replace(str(tmp_path), "<tmp>"), written])
    return hashlib.sha256(blob.encode()).hexdigest()


CASES = {
    "sample-dual-dot": ("sample", ["dual", "{doc}", "abstract_four", "--dot"], "h.dot"),
    "sample-canext": ("sample", ["canext", "{doc}", "abstract_four"], None),
    "sample-verify": ("sample", ["verify", "{doc}", "collapse_four_to_two"], "r.json"),
    "big-dual-dot": ("big", ["dual", "{doc}", "big", "--dot"], "h.dot"),
    "big-canext": ("big", ["canext", "{doc}", "big"], None),
    "big-verify": ("big", ["verify", "{doc}", "embed"], "r.json"),
}

GOLDEN = {
    "sample-dual-dot": "c6d9a0d321e35947affb6cb552eb9ce2f1b35480eb079a2c64ce45d1da150b49",
    "sample-canext": "a3c81fe71a83cc27aa099decd1e026eeea747092f01bbe3f2f1151e16d553acf",
    "sample-verify": "7435f79c781484be4c436e60fe0dcb673ffc4073d7b801c76d19c9afb4226df3",
    "big-dual-dot": "df12df8606bc3559d6623fc32f15bad24574378dd1adc9d070617b0b37e0f025",
    "big-canext": "2a29ec21d4445178fca7a820678a3949e0e13e1f52ce8b355c2a8b2e1fbe0fb7",
    "big-verify": "0d5969f90b29b7f02bc21e604bb0754a55dc184b560542b1851316dc47a29c2f",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_document_command_output_is_pinned(case, capsys, tmp_path):
    which, argv, out_name = CASES[case]
    if which == "sample":
        doc = SAMPLE
    else:
        doc = tmp_path / "big.json"
        doc.write_text(shuffled_powerset_document())
    argv = [str(doc) if a == "{doc}" else a for a in argv]
    assert command_digest(capsys, tmp_path, argv, out_name) == GOLDEN[case]
