"""The stonecheck benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run each in
turn.  Run from anywhere; the program is imported from ``src/`` of the
checkout that holds this file, and scratch files go to ``.perfbench/`` there.

A run starts fresh worker processes one after another, each running the
workload once in a new interpreter, until S seconds have passed and at
least three have finished.  Nothing else runs alongside, so the load is one
process on one thread.

``--trace 0`` reports the end-to-end metrics: medians over the workers of
set-up time (spawn until ``stonecheck.cli`` is imported), workload wall time
and peak RSS, and the median latency of all the run's commands.  Timings are
given at the fixed reference speed of ``calibrate.py``, each scaled by the
speed its worker's gauge measured while it ran; the measured medians and the
scale are printed too.  It also prints the 90th-percentile latency of all
commands when there are 100 or more.
``--trace 1`` alternates untraced and traced workers and reports the
per-layer metrics listed in ``BENCHMARK.json``; the full table goes to
``.perfbench/trace-NAME.json`` and the first traced worker's spans to
``.perfbench/spans-NAME.tsv``.

Every command's outputs are checked (see ``checks.py``).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is 0 when the benchmark ran, whatever the checks found, and
nonzero, with no result line, when it could not run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import failed_operations
from workloads import DOC, OUT, WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
MIN_WORKERS = 3
WORKER_TIMEOUT_S = 150


class BenchmarkError(Exception):
    pass


def run_worker(rundir: Path, spec: Path) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), str(ROOT), spec.name, ""]
    shutil.rmtree(rundir / OUT, ignore_errors=True)
    (rundir / OUT).mkdir()
    argv[-1] = repr(time.perf_counter())
    proc = subprocess.run(
        argv, cwd=rundir, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def layer_values(worker: dict) -> dict[str, float]:
    """Flatten one traced worker's summary into per-layer metric values."""
    trace = worker["trace"]
    out: dict[str, float] = {}
    for name, row in trace["functions"].items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    for name, ratio in trace["cache_hit_ratio"].items():
        out[f"{name}.cache_hit_ratio"] = ratio
    out.update(trace["counts"])
    tables = out.get("compactification.extension_candidates.tables", 0)
    accepted = out.get("compactification.extension_candidates.accepted", 0)
    out["compactification.extension_candidates.useful_ratio"] = accepted / tables if tables else 0.0
    out["trace.spans"] = trace["spans"]
    return out


def prepare(name: str, seed: int) -> tuple[Path, list[list[str]]]:
    """A fresh run directory holding the workload's document; its commands."""
    inputs = make_inputs(name, seed)
    rundir = WORK / f"{name}-{seed}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    if inputs.document is not None:
        (rundir / DOC).write_text(inputs.document, encoding="utf-8")
    return rundir, inputs.commands


def write_spec(rundir: Path, tag: str, commands: list[list[str]], trace: bool, spans=None) -> Path:
    path = rundir / f"spec-{tag}.json"
    body = {"commands": commands, "trace": trace, "spans": spans and str(spans)}
    path.write_text(json.dumps(body), encoding="utf-8")
    return path


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    rundir, commands = prepare(name, seed)
    expected = None
    if seed == WORKLOADS[name].default_seed:
        expected = json.loads((HERE / "expected.json").read_text())[name]["digests"]
        if len(expected) != len(commands):
            raise BenchmarkError(f"expected.json does not match the {name} command list")
    specs = {
        "plain": write_spec(rundir, "plain", commands, False),
        "traced": write_spec(rundir, "traced", commands, True),
        "spans": write_spec(rundir, "spans", commands, True, WORK / f"spans-{name}.tsv"),
    }

    workers: dict[bool, list[dict]] = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(workers[True]) < len(workers[False])
        tag = ("traced" if workers[True] else "spans") if traced else "plain"
        workers[traced].append(run_worker(rundir, specs[tag]))
        enough = len(workers[False]) >= MIN_WORKERS and (
            not trace or len(workers[True]) >= MIN_WORKERS
        )
        if enough and time.perf_counter() >= deadline:
            break
    shutil.rmtree(rundir)

    digests = expected or [c["digest"] for c in workers[False][0]["commands"]]
    attempted = failed = 0
    for worker in workers[False] + workers[True]:
        for record, ref in zip(worker["commands"], digests):
            attempted += record["operations"]
            lost = failed_operations(record, ref)
            if lost and not failed:
                print(f"first failure: {record}", file=sys.stderr)
            failed += lost

    plain = workers[False]
    if not trace:
        # Timings are scaled to the reference speed of calibrate.py, each by
        # the gauge of the worker that took it; set-up is scaled by the gauge
        # of the workload that follows it within a second.
        latencies = [c["ms"] * w["speed_scale"] for w in plain for c in w["commands"]]
        values = {
            "setup_s": statistics.median(w["setup_s"] * w["speed_scale"] for w in plain),
            "wall_s": statistics.median(w["wall_s"] * w["speed_scale"] for w in plain),
            "cmd_ms_p50": statistics.median(latencies),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in plain),
        }
        wanted = spec["end_to_end"]
        context = {
            "workers": len(plain),
            "commands": len(latencies),
            "measured setup_s": statistics.median(w["setup_s"] for w in plain),
            "measured wall_s": statistics.median(w["wall_s"] for w in plain),
            "speed scale": statistics.median(w["speed_scale"] for w in plain),
        }
        # Shown only with ten samples beyond it; not a gated metric, because
        # on the one-command workloads it would measure the machine's noise.
        if len(latencies) >= 100:
            context["cmd_ms_p90"] = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    else:
        per_worker = [layer_values(w) for w in workers[True]]
        values = {
            key: statistics.median(v[key] for v in per_worker) for key in per_worker[0]
        }
        values["process.cpu_s"] = statistics.median(w["cpu_s"] for w in plain)
        # Each traced worker runs right after an untraced one; pairing them
        # keeps slow drift of the machine out of the difference.
        values["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(plain, workers[True])
        )
        WORK.mkdir(exist_ok=True)
        table = {
            "workload": name,
            "seed": seed,
            "untraced_wall_s": statistics.median(w["wall_s"] for w in plain),
            "traced_wall_s": statistics.median(w["wall_s"] for w in workers[True]),
            "values": values,
        }
        (WORK / f"trace-{name}.json").write_text(
            json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        wanted = spec["per_layer"]
        context = {"untraced workers": len(plain), "traced workers": len(workers[True])}

    # A function that a later change removes reads as never called.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "context": context,
    }


def print_table(name: str, result: dict) -> None:
    print(f"{name}:")
    rate = result["failed"] / result["attempted"]
    print(f"  error_rate = {rate:.6g} ({result['failed']} of {result['attempted']} operations)")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    for key, value in result["context"].items():
        print(f"  ({key}: {value:.6g})")


def main() -> int:
    parser = argparse.ArgumentParser(description="Run the stonecheck benchmark.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "stonecheck" / "cli.py").is_file():
        print(f"no stonecheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
            print_table(name, results[name])
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.workload == "all":
        metrics = {
            f"{name}.{metric}": entry
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
        }
    else:
        metrics = results[args.workload]["metrics"]
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
