"""Output checks shared by ``worker.py``, ``run.py`` and the self-tests.

Every command's outputs (stdout and the ``--out`` file, if any) are digested
with sha256.  For a workload's default seed the digests must equal the ones
recorded in ``expected.json``; for any seed, every process in a run must
reproduce the digests of the first, traced or not.  Independently of
digests, no command may exit nonzero or raise, and no output may report a
failed check.
"""

from __future__ import annotations

import hashlib
import json


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def out_path(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def inspect_outputs(argv: list[str], stdout: str, out_text: str | None) -> tuple[int, int]:
    """Operations a command's outputs cover, and how many of them failed.

    A ``verify`` report counts one operation per instance, failed when any
    of its checks failed; ``canext`` and ``dual`` count one operation, failed
    unless the output shows what a successful run prints.
    """
    if argv[0] == "verify":
        try:
            instances = json.loads(out_text or "")["instances"]
        except (ValueError, KeyError, TypeError):
            return 1, 1
        failed = sum(
            any(check["verdict"] == "fail" for check in inst["checks"]) for inst in instances
        )
        return max(len(instances), 1), failed if instances else 1
    if argv[0] == "canext":
        ok = "dense: pass\n" in stdout and "compact: pass\n" in stdout
        return 1, 0 if ok else 1
    if argv[0] == "dual":
        ok = stdout.startswith("dual space of ") and (out_text or "").startswith("digraph ")
        return 1, 0 if ok else 1
    raise ValueError(f"no output check for command {argv[0]!r}")


def failed_operations(record: dict, reference: dict) -> int:
    """Failed operations of one command record, given reference digests.

    A nonzero exit, an exception or a digest that differs from the
    reference fails every operation of the command.
    """
    if record["rc"] != 0 or record["error"] is not None or record["digest"] != reference:
        return record["operations"]
    return record["failed"]
