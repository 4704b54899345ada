"""Record the output digests and workload facts, and optionally the baseline.

    python3 perfbench/record.py                 # writes perfbench/expected.json
    python3 perfbench/record.py --baseline 20   # also perfbench/baseline.json

``expected.json`` holds, for each workload's default seed, the sha256 of
every command output that ``run.py`` checks, with the facts that describe
the workload: its size, the (source atoms, target atoms) histogram of the
homs it verifies, their repeated share, and the count of each command kind.
Re-record only when the outputs are meant to change.

``baseline.json`` holds the machine, the end-to-end metrics and the full
traced per-layer table of each workload, from runs of the given length.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from collections import Counter

from run import HERE, ROOT, WORK, prepare, run_worker, run_workload, write_spec
from workloads import WORKLOADS


def hom_facts(reports: list[dict]) -> dict:
    homs = [
        (d["source_atoms"], d["target_atoms"], tuple(d["atom_function"]))
        for report in reports
        for d in (inst["descriptor"] for inst in report["instances"])
        if d["kind"] == "hom"
    ]
    sizes = Counter(f"{k1}->{k2}" for k1, k2, _ in homs)
    return {
        "homs": len(homs),
        "distinct_homs": len(set(homs)),
        "repeated_hom_share": 1 - len(set(homs)) / len(homs),
        "size_histogram": dict(sorted(sizes.items())),
    }


def record_workload(name: str) -> dict:
    seed = WORKLOADS[name].default_seed
    rundir, commands = prepare(name, seed)
    worker = run_worker(rundir, write_spec(rundir, "plain", commands, False))
    bad = [c["argv"] for c in worker["commands"] if c["rc"] != 0 or c["error"] or c["failed"]]
    if bad:
        sys.exit(f"{name}: commands failed, nothing recorded: {bad}")
    reports = [
        json.loads((rundir / argv[-1]).read_text())
        for argv in commands
        if argv[0] == "verify"
    ]
    facts = {
        "why": WORKLOADS[name].why,
        "default_seed": seed,
        "commands": len(commands),
        "command_kinds": dict(Counter(argv[0] for argv in commands)),
        "report_instances": sum(len(r["instances"]) for r in reports),
        **hom_facts(reports),
    }
    doc = rundir / "doc.json"
    if doc.exists():
        algebras = json.loads(doc.read_text())["algebras"]
        facts["document_bytes"] = doc.stat().st_size
        facts["algebra_atoms"] = [len(a["carrier"]).bit_length() - 1 for a in algebras]
    facts["digests"] = [c["digest"] for c in worker["commands"]]
    shutil.rmtree(rundir)
    return facts


def machine() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=int, metavar="SECONDS")
    args = parser.parse_args()

    expected = {name: record_workload(name) for name in WORKLOADS}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    if args.baseline is None:
        return
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = {"machine": machine(), "run_seconds": args.baseline, "workloads": {}}
    for name, workload in WORKLOADS.items():
        seed = workload.default_seed
        plain = run_workload(name, seed, args.baseline, False, spec)
        traced = run_workload(name, seed, args.baseline, True, spec)
        full = json.loads((WORK / f"trace-{name}.json").read_text())
        baseline["workloads"][name] = {
            "seed": seed,
            "correct": plain["correct"] and traced["correct"],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "context": plain["context"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_table": full["values"],
        }
    # The figures ROADMAP item 1 quotes, measured here.  The completeness
    # scan runs inside ``completion`` and calls nothing that is traced, so
    # its traced self time is close to its untraced time.
    exhaustive = json.loads((WORK / "trace-exhaustive-4.json").read_text())
    table = exhaustive["values"]
    baseline["roadmap_item_1"] = {
        "homs": expected["exhaustive-4"]["homs"],
        "report_instances": expected["exhaustive-4"]["report_instances"],
        "wall_s": baseline["workloads"]["exhaustive-4"]["end_to_end"]["wall_s"],
        "extension_candidates_calls": table["compactification.extension_candidates.calls"],
        "completion_self_share_of_untraced_wall": table["extension.completion.self_s"]
        / exhaustive["untraced_wall_s"],
        "completion_self_share_of_traced_wall": table["extension.completion.self_s"]
        / exhaustive["traced_wall_s"],
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
