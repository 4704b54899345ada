"""One benchmark process: import stonecheck, run a command list, report.

Usage: ``python3 worker.py ROOT SPEC SPAWN_TIME``, run in the directory that
holds the workload's ``doc.json`` and ``out/``.  ROOT is the checkout,
SPEC a JSON file ``{"commands": [...], "trace": bool, "spans": path or null}``
(spans are written to the path, if given), and SPAWN_TIME the value of
``time.perf_counter()`` in ``run.py`` just before it started this process
(CLOCK_MONOTONIC, which is shared by all processes).  Prints one JSON object.

Each process starts with empty ``@cache`` tables, as every CLI invocation
does, and calls ``stonecheck.cli.main`` once per command.
"""

import sys
import time

if __name__ == "__main__":
    # Set-up ends when stonecheck.cli is imported, so nothing comes before it.
    sys.path.insert(0, sys.argv[1] + "/src")
    import stonecheck.cli

    SETUP_S = time.perf_counter() - float(sys.argv[3])

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

import stonecheck.cli  # noqa: E402
from calibrate import SpeedGauge  # noqa: E402
from checks import inspect_outputs, out_path, sha256  # noqa: E402
from tracer import Tracer  # noqa: E402

LAYERS = ("algebra", "duality", "compactification", "extension", "harness", "documents", "cli")


def public_functions() -> dict:
    """``layer.name`` -> every public function defined in a layer module."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"stonecheck.{layer}")
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == module.__name__
            ):
                out[f"{layer}.{attr}"] = value
    return out


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def work_counters() -> dict:
    """Work counts derived from the arguments and results of layer calls."""
    from stonecheck.extension import MAX_ISO_SEARCH

    def candidates(args, kwargs, result):
        space = _arg(args, kwargs, 0, "bx").space
        target = _arg(args, kwargs, 2, "target")
        return {
            "compactification.extension_candidates.tables": target.size ** space.size,
            "compactification.extension_candidates.accepted": len(result),
        }

    def double_dual(args, kwargs, result):
        bundle = _arg(args, kwargs, 0, "bundle")
        return {"harness.double_dual_map.subsets_scanned": 1 << bundle.hom.target.atom_count}

    def completion(args, kwargs, result):
        # _assert_complete scans every subset of carriers up to MAX_ISO_SEARCH.
        size = _arg(args, kwargs, 1, "complete").size
        scanned = 1 << size if size <= MAX_ISO_SEARCH else 0
        return {"extension.completion.subsets_scanned": scanned}

    return {
        "compactification.extension_candidates": candidates,
        "harness.double_dual_map": double_dual,
        "extension.completion": completion,
    }


def peak_rss_kib() -> int:
    """This process's own peak resident set.

    ``ru_maxrss`` is not used: Linux carries the parent's resident set at
    fork over into it, so it reads the larger of the two.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_command(argv: list[str], gauge: SpeedGauge) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    busy = gauge.busy_s
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = stonecheck.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # recorded as a failed operation
        error = repr(exc)
    ms = (time.perf_counter() - start - (gauge.busy_s - busy)) * 1000
    if rc not in (0, None):
        error = stderr.getvalue()
    return {"argv": argv, "rc": rc, "error": error, "ms": ms, "stdout": stdout.getvalue()}


def digest(record: dict) -> dict:
    """Replace a record's raw stdout by digests and the operation counts."""
    argv, stdout = record["argv"], record.pop("stdout")
    path = out_path(argv)
    out_text = None
    if path is not None and os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            out_text = fh.read()
    record["digest"] = {
        "stdout": sha256(stdout.encode("utf-8")),
        "out": None if out_text is None else sha256(out_text.encode("utf-8")),
    }
    record["operations"], record["failed"] = inspect_outputs(argv, stdout, out_text)
    return record


def main(spec_path: str, setup_s: float) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    targets = public_functions()
    cached = {name: fn for name, fn in targets.items() if hasattr(fn, "cache_info")}
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install("stonecheck", targets, work_counters())
    before = {name: fn.cache_info() for name, fn in cached.items()}

    # The gauge's handler would land inside traced spans, so traced workers
    # do without it: their timings are not scaled.
    gauge = SpeedGauge()
    cpu = time.process_time()
    start = time.perf_counter()
    records = []
    with gauge if tracer is None else contextlib.nullcontext():
        for i, argv in enumerate(spec["commands"]):
            if tracer is not None:
                tracer.run_id = i
            records.append(run_command(argv, gauge))
    wall_s = time.perf_counter() - start - gauge.busy_s
    cpu_s = time.process_time() - cpu - gauge.busy_s
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = peak_rss_kib() / 1024

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "speed_scale": gauge.scale() if gauge.samples else None,
        "peak_rss_mb": peak_rss_mb,
        "commands": [digest(r) for r in records],
    }
    if tracer is not None:
        cache_hit_ratio = {}
        for name, fn in cached.items():
            now, then = fn.cache_info(), before[name]
            hits, misses = now.hits - then.hits, now.misses - then.misses
            cache_hit_ratio[name] = hits / (hits + misses) if hits + misses else 0.0
        result["trace"] = {
            "functions": tracer.summary(),
            "counts": tracer.counts,
            "cache_hit_ratio": cache_hit_ratio,
            "spans": len(tracer.start),
        }
        if spec["spans"]:
            tracer.dump(spec["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[2], SETUP_S)
