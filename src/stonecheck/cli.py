"""Command-line front end: ingest documents, run constructions, export reports.

Exit codes: 0 on success, 1 when a verification records a counterexample,
2 on usage or validation errors, 3 on an internal error: a ``LibraryBug``
(``InvariantViolation``, ``NoClopenPreimage``, ``NoExtension``), which only
a bug in this package raises, never bad input.  All outputs are
deterministic -- sorted keys, fixed orderings, zeroed timings -- so
consecutive runs on the same inputs are byte-identical.

Every byte a command writes goes through ``write_pieces``, a piece at a
time to the ``--out`` file, stdout, or both in one pass, so a report's text
is never held whole, and a reader that closes stdout changes no exit code;
``report_json`` joins the same pieces into one string for library callers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Iterable, Iterator
from functools import cache
from json.encoder import encode_basestring_ascii
from operator import is_
from pathlib import Path

from . import __version__
from .algebra import MAX_ATOMS, ultrafilters
from .documents import Document, document_digest, parse_document
from .duality import dual_space, phi_table
from .errors import InvariantViolation, LibraryBug, StonecheckError
from .extension import canonical_extension
from .harness import (
    InstanceReport,
    VerificationReport,
    _descriptor_of,
    build_diagram,
    full_hom_instance,
    suite_plan,
)

SCHEMA_VERSION = 1


def _indented(value, depth: int = 6) -> str:
    """``value`` as sorted, 2-space-indented JSON nested ``depth`` spaces
    deep (by default at instance-key depth)."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + " " * depth)


def _descriptor_text(descriptor: dict) -> str:
    """``_indented(descriptor)``, composed directly when every key is a
    string and every value an int, a string or a list of ints, as in every
    descriptor the harness makes; any other descriptor goes to ``json.dumps``.
    """
    lines = []
    for key, value in sorted(descriptor.items()):
        if type(key) is not str:
            return _indented(descriptor)
        if type(value) is int:
            text = str(value)
        elif type(value) is str:
            text = encode_basestring_ascii(value)
        elif type(value) is list and all(type(v) is int for v in value):
            items = ",\n          ".join(map(str, value))
            text = f"[\n          {items}\n        ]" if value else "[]"
        else:
            return _indented(descriptor)
        lines.append(f"        {encode_basestring_ascii(key)}: {text}")
    body = ",\n".join(lines)
    return f"{{\n{body}\n      }}" if lines else "{}"


class _Tally:
    """Counts the instances and checks written and whether all passed; with
    the ``total`` of a run and a terminal as stderr, it also shows ``k/total
    instances`` there after the first second, at most once a second.

    With the ``coverage`` of a ``verify --all`` run, (max atoms, sample or
    None), it checks each descriptor as it streams against what those
    arguments alone call for (``_Coverage``), and at the end the run's
    ``premises`` too; a mismatch is an InvariantViolation."""

    def __init__(
        self,
        total: int | None = None,
        coverage: tuple[int, tuple[int, int] | None] | None = None,
        premises: list[int] | None = None,
    ) -> None:
        self.instances, self.checks, self.passed = 0, 0, True
        self.total = total if total is not None and sys.stderr.isatty() else None
        self.due = _clock() + 1.0
        self.coverage = None if coverage is None else _Coverage(*coverage)
        self.premises = premises

    def add(self, descriptor: dict, checks: int, passed: bool) -> None:
        if self.coverage is not None:
            self.coverage.add(descriptor)
        self.instances += 1
        self.checks += checks
        self.passed = self.passed and passed
        if self.total is not None and (now := _clock()) >= self.due:
            print(f"{self.instances}/{self.total} instances", file=sys.stderr, flush=True)
            self.due = now + 1.0

    def finish(self) -> None:
        """Raise InvariantViolation when a descriptor the run calls for is
        missing, or, in an exhaustive run, when the homs it found
        one-to-one, onto and both are not those of the closed forms."""
        if self.coverage is None:
            return
        self.coverage.finish()
        if self.coverage.sample is None:
            expected = _premise_counts(self.coverage.max_atoms)
            if tuple(self.premises) != expected:
                raise InvariantViolation(
                    "premise counts differ from their closed forms",
                    (tuple(self.premises), expected),
                )


def _premise_counts(max_atoms: int) -> tuple[int, int, int]:
    """How many homs between powerset algebras of 1 to ``max_atoms`` atoms
    are one-to-one, onto, and both.  h from k1 to k2 atoms is one-to-one
    exactly when its atom function, from the k2 target atoms to the k1
    source atoms, is onto, and onto exactly when that function is one-to-one:
    the surjections k1! S(k2, k1), by inclusion-exclusion, and the
    injections k1! / (k1 - k2)!."""
    sizes = range(1, max_atoms + 1)
    onto = sum(
        sum((-1) ** i * math.comb(k1, i) * (k1 - i) ** k2 for i in range(k1 + 1))
        for k1 in sizes
        for k2 in sizes
    )
    one_to_one = sum(math.perm(k1, k2) for k1 in sizes for k2 in sizes)
    return onto, one_to_one, sum(math.factorial(k) for k in sizes)


class _Coverage:
    """The instances a ``verify --all`` run calls for, from its arguments
    alone, checked one descriptor at a time in report order.

    Exhaustive: every atom count from 1 to K once, and every atom function
    of ``range(k1) ** k2`` once for 1 <= k1, k2 <= K.  Report order is that
    of the descriptors' JSON texts, in which each (k1, k2) pair's functions
    come in the order of ``itertools.product``, so one such iterator per
    pair names the next function due; sampled: exactly ``count`` homs,
    sample indices 0 to count - 1 once each, kept as one bitmask.  The first
    descriptor out of place, or at the end the first one missing (of the
    first pair that is short), raises InvariantViolation naming it."""

    def __init__(self, max_atoms: int, sample: tuple[int, int] | None) -> None:
        self.max_atoms, self.sample = max_atoms, sample
        sizes = range(1, max_atoms + 1) if sample is None else ()
        pairs = itertools.product(sizes, sizes)
        self.due = {(k1, k2): itertools.product(range(k1), repeat=k2) for k1, k2 in pairs}
        self.seen = self.atoms = 0

    def add(self, d: dict) -> None:
        sizes = range(1, self.max_atoms + 1)
        if d.get("kind") == "algebra":
            self.atoms += 1
            _expect(d.get("atoms") == self.atoms in sizes, "unexpected", d)
            return
        k1, g = d.get("source_atoms"), d.get("atom_function")
        valid = k1 in sizes and len(g) in sizes and d.get("target_atoms") == len(g)
        _expect(valid and not self.atoms and all(0 <= p < k1 for p in g), "unexpected", d)
        if self.sample is not None:
            i = d.get("sample_index")
            _expect(0 <= i < self.sample[1] and not self.seen >> i & 1, "unexpected", d)
            self.seen |= 1 << i
            return
        due = next(self.due[k1, len(g)], None)
        _expect(due is not None and tuple(g) >= due, "unexpected", d)
        _expect(tuple(g) == due, "missing", _descriptor_of(k1, due))

    def finish(self) -> None:
        if self.sample is not None:
            missing = ~self.seen & ((1 << self.sample[1]) - 1)
            i = (missing & -missing).bit_length() - 1
            _expect(not missing, "missing", {"kind": "hom", "sample_index": i})
        for (k1, _), functions in self.due.items():
            due = next(functions, None)
            if due is not None:
                _expect(False, "missing", _descriptor_of(k1, due))
        _expect(self.atoms == self.max_atoms, "missing", {"kind": "algebra", "atoms": self.atoms + 1})


def _expect(holds: bool, what: str, descriptor: dict) -> None:
    """Raise InvariantViolation naming the descriptor unless ``holds``."""
    if not holds:
        raise InvariantViolation(f"{what} instance in the suite", descriptor)


_clock = time.monotonic


def _report_pieces(
    stream: Iterable[tuple[InstanceReport, int | None]],
    input_digest: str,
    tally: _Tally,
) -> Iterator[str]:
    """The report file's text, a piece per instance of ``stream`` as it
    comes, the envelope head with the first; joined, the bytes of
    ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` over the schema
    envelope and each instance as its descriptor, the rows of its checks
    (``CheckResult.as_row``) and a ``timing_ms`` of 0, so that report files
    are byte-identical across runs; counted in ``tally``.
    Each sampled draw comes marked with the sample index of its hom's first
    draw (``harness.SuitePlan.run``), and an exhaustive hom with None.  A
    marked hom has its checks and descriptor text encoded once, under that
    mark; each later draw splices in its own ``sample_index``.  Marks are
    held only while their atom function's draws last: a marked draw under
    another atom function drops them first.  A ``checks``
    list that holds the same ``CheckResult`` objects as the one before it
    (all-pass lists share one per name) reuses its text.  The splices are
    exact because ``json.dumps`` escapes every newline in a string.  Never
    held: the report text, nor an instance once written.
    """
    # the last checks list with its text: kept alive, so that no object in
    # it is freed and no later list can hold an object of the same identity
    last: tuple[list, str, bool] = ([], "[]", True)
    repeat_text: dict[int, tuple[str, bool, str, str]] = {}
    atom_function = None

    def checks_piece(checks) -> tuple[str, bool]:
        nonlocal last
        same = len(checks) == len(last[0]) and all(map(is_, checks, last[0]))
        if not same:
            rows = ",\n        ".join([_indented(c.as_row(), 8) for c in checks])
            text = f"[\n        {rows}\n      ]" if checks else "[]"
            last = (checks, text, all(c.witness is None for c in checks))
        return last[1:]

    # sent with the first instance: a run that stops before it writes nothing
    head = f'{{\n  "input_digest": {json.dumps(input_digest)},\n  "instances": ['
    separator = head
    for inst, repeat in stream:
        if repeat is not None and inst.descriptor["atom_function"] != atom_function:
            repeat_text.clear()
            atom_function = inst.descriptor["atom_function"]
        known = repeat_text.get(repeat)
        if known is None:
            checks, passed = checks_piece(inst.checks)
            descriptor = _descriptor_text(inst.descriptor)
            if repeat is not None:
                marker = f'"sample_index": {inst.descriptor["sample_index"]}'
                before, _, after = descriptor.rpartition(marker)
                repeat_text[repeat] = (checks, passed, before + '"sample_index": ', after)
        else:
            checks, passed, before, after = known
            descriptor = before + str(inst.descriptor["sample_index"]) + after
        tally.add(inst.descriptor, len(inst.checks), passed)
        # the stream makes its next instance while this frame waits
        del inst
        yield (
            f"{separator}\n    {{\n"
            f'      "checks": {checks},\n'
            f'      "descriptor": {descriptor},\n'
            '      "timing_ms": 0\n'
            "    }"
        )
        separator = ","
    tally.finish()
    yield (
        (head + "]" if separator is head else "\n  ]")
        + f',\n  "schema_version": {json.dumps(SCHEMA_VERSION)},\n'
        f'  "tool_version": {json.dumps(__version__)}\n'
        "}\n"
    )


def report_json(report: VerificationReport, input_digest: str) -> str:
    """The report file as one string: the joined pieces of
    ``_report_pieces``.  For library callers and tests; the CLI streams the
    pieces through ``write_pieces`` instead of holding the text."""
    stream = ((inst, None) for inst in report.instances)
    return "".join(_report_pieces(stream, input_digest, _Tally()))


def _read_document(path: str) -> str:
    """The text of a document file; only ``verify`` hashes it, for its report."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise StonecheckError(f"cannot read document: {exc}") from exc


class _OutputFile:
    """The ``--out`` file as a sink, buffered 64 KiB so that a report written
    while the battery runs costs few system calls.  An OSError in opening,
    writing or closing it is the ``cannot write`` error (exit 2); one raised
    by another sink written in the same pass, such as stdout, is not."""

    def __init__(self, out: str) -> None:
        self.out = out
        self.fh = self._call(open, out, "w", 1 << 16, encoding="utf-8")

    def _call(self, func, *args, **kwargs):
        try:
            return func(*args, **kwargs)
        except OSError as exc:
            raise StonecheckError(f"cannot write {self.out!r}: {exc}") from exc

    def write(self, text: str) -> None:
        self._call(self.fh.write, text)

    def close(self) -> None:
        self._call(self.fh.close)


class _Stdout:
    """stdout as a sink.  Once its reader has gone (a broken pipe, as with
    ``| head``), the rest is dropped quietly: the exit code stays the
    command's, and any other sink of the pass still gets the whole text.
    ``close`` flushes stdout, so that a broken pipe is met here and not at
    interpreter exit."""

    def write(self, text: str) -> None:
        self._call(sys.stdout.write, text)

    def close(self) -> None:
        self._call(sys.stdout.flush)

    @staticmethod
    def _call(func, *args) -> None:
        try:
            func(*args)
        except BrokenPipeError:
            # stdout goes to the null device from here on, so that neither a
            # later write nor the flush at exit raises it again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def write_pieces(pieces: Iterable[str], out: str | None = None, echo: bool = False) -> None:
    """Write ``pieces`` in order to the file ``out``, and to stdout when
    there is no ``out`` or ``echo`` is set, in one pass, a piece at a time:
    the text is made once whatever the number of sinks, never held whole,
    and each sink's own buffer batches the pieces into large writes."""
    sinks = [] if out is None else [_OutputFile(out)]
    if out is None or echo:
        sinks.append(_Stdout())
    try:
        for piece in pieces:
            for sink in sinks:
                sink.write(piece)
    finally:
        for sink in reversed(sinks):
            sink.close()


def _dot_string(text: str) -> str:
    """``text`` as a quoted DOT string, with ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _hasse_dot(doc: Document, name: str) -> str:
    """Hasse diagram of the algebra with its ultrafilters annotated."""
    algebra = doc.algebra(name)
    labels = doc.labels[name]
    ufs = ultrafilters(algebra)
    phi = phi_table(algebra)
    n = algebra.size
    lines = [f"digraph {_dot_string(name)} {{", "  rankdir=BT;", "  node [shape=box];"]
    for i in range(n):
        inside = ",".join(f"u{k}" for k in range(len(ufs)) if phi[i] >> k & 1)
        tip = _dot_string(f"in ultrafilters: {inside}")
        lines.append(f"  e{i} [label={_dot_string(labels[i])} tooltip={tip}];")
    masks = algebra.atom_mask
    for i in range(n):
        for j in range(n):
            # j covers i exactly when its atom mask adds one atom to i's
            if masks[j] > masks[i] and (masks[i] ^ masks[j]).bit_count() == 1:
                lines.append(f"  e{i} -> e{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _diagram_dot(doc: Document, hom_name: str) -> str:
    """The eight-node construction diagram for a named homomorphism."""
    hom = doc.hom(hom_name)
    src_name, dst_name = doc.hom_endpoints[hom_name]
    diagram = build_diagram(hom)
    n1 = len(ultrafilters(hom.source))
    n2 = len(ultrafilters(hom.target))

    def table_tip(table) -> str:
        return "; ".join(f"{i}->{v}" for i, v in enumerate(table))

    def points(n: int) -> str:
        return "1 point" if n == 1 else f"{n} points"

    src_labels, dst_labels = doc.labels[src_name], doc.labels[dst_name]
    hom_tip = "; ".join(
        f"{src_labels[i]}->{dst_labels[v]}" for i, v in enumerate(hom.table)
    )
    dd_tip = table_tip(diagram.double_dual)
    lines = [
        f"digraph {_dot_string(hom_name)} {{",
        "  rankdir=LR;",
        "  node [shape=box];",
        f"  b1 [label={_dot_string(f'B1 = {src_name} ({hom.source.size} elements)')}];",
        f'  uf1 [label="Uf(B1) ({points(n1)})"];',
        f'  beta1 [label="beta(Uf(B1)) ({points(n1)})"];',
        f'  pow1 [label="P(Uf(B1)) ({1 << n1} elements)"];',
        f"  b2 [label={_dot_string(f'B2 = {dst_name} ({hom.target.size} elements)')}];",
        f'  uf2 [label="Uf(B2) ({points(n2)})"];',
        f'  beta2 [label="beta(Uf(B2)) ({points(n2)})"];',
        f'  pow2 [label="P(Uf(B2)) ({1 << n2} elements)"];',
        '  b1 -> uf1 [label="(.)_*" style=dashed];',
        '  uf1 -> beta1 [label="beta_1"];',
        '  beta1 -> pow1 [label="(.)^*" style=dashed];',
        '  b2 -> uf2 [label="(.)_*" style=dashed];',
        '  uf2 -> beta2 [label="beta_2"];',
        '  beta2 -> pow2 [label="(.)^*" style=dashed];',
        f'  b1 -> b2 [label="h" tooltip={_dot_string(hom_tip)}];',
        f'  uf2 -> uf1 [label="h_*" tooltip="{table_tip(diagram.h_star.table)}"];',
        f'  beta2 -> beta1 [label="h_*^beta" tooltip="{table_tip(diagram.h_star_beta.table)}"];',
        f'  pow1 -> pow2 [label="(h_*^beta)^*" tooltip="{dd_tip}"];',
        "}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_dual(args) -> int:
    if args.dot and args.out is None:
        raise UsageError("--dot requires --out PATH")
    if args.out is not None and not args.dot:
        raise UsageError("--out requires --dot")
    doc = parse_document(_read_document(args.document))
    algebra = doc.algebra(args.name)
    labels = doc.labels[args.name]
    ufs = ultrafilters(algebra)
    space = dual_space(algebra)
    lines = [f"dual space of {args.name}", f"points: {space.size}"]
    for k, u in enumerate(ufs):
        lines.append(f"  u{k}: principal ultrafilter at atom {labels[u.atom]}")
    base = {m: [k for k in range(space.size) if m >> k & 1] for m in space.base}
    lines.append(f"base sets: {len(base)}")
    for points in sorted(base.values(), key=lambda points: (len(points), points)):
        inside = ",".join(f"u{k}" for k in points)
        lines.append("  {" + inside + "}")
    write_pieces(["\n".join(lines) + "\n"])
    if args.dot:
        write_pieces([_hasse_dot(doc, args.name)], args.out)
    return 0


def _cmd_canext(args) -> int:
    doc = parse_document(_read_document(args.document))
    algebra = doc.algebra(args.name)
    extension = canonical_extension(algebra)
    # canonical_extension raises InvariantViolation unless both verdicts pass
    lines = [
        f"canonical extension of {args.name}",
        f"points: {len(ultrafilters(algebra))}",
        f"extension size: {extension.complete.size}",
        "dense: pass",
        "compact: pass",
    ]
    write_pieces(["\n".join(lines) + "\n"])
    return 0


def _cmd_verify(args) -> int:
    if args.all:
        if args.hom is not None:
            raise UsageError("--all cannot be combined with a named homomorphism")
        if args.max_atoms is None:
            raise UsageError("--all requires --max-atoms")
        if not 1 <= args.max_atoms <= MAX_ATOMS:
            raise UsageError(f"--max-atoms must be between 1 and {MAX_ATOMS}")
        if (args.seed is None) != (args.count is None):
            raise UsageError("--seed and --count must be given together")
        if args.count is not None and args.count < 1:
            raise UsageError("--count must be at least 1")
        sample = None if args.seed is None else (args.seed, args.count)
        digest_text = (
            f"all:max_atoms={args.max_atoms}:seed={args.seed}:count={args.count}"
        )
        if args.document is not None:
            raise UsageError("--all does not take a document")
        plan = suite_plan(args.max_atoms, sample)
        stream, digest = plan.run(), document_digest(digest_text)
        tally = _Tally(len(plan), (args.max_atoms, sample), plan.premises)
    else:
        if args.document is None or args.hom is None:
            raise UsageError("verify needs a document and a homomorphism name, or --all")
        if args.max_atoms is not None or args.seed is not None or args.count is not None:
            raise UsageError("--max-atoms/--seed/--count only apply to --all")
        text = _read_document(args.document)
        doc, digest = parse_document(text), document_digest(text)
        hom = doc.hom(args.hom)
        stream, tally = [(full_hom_instance(hom, name=args.hom), None)], _Tally()

    write_pieces(_report_pieces(stream, digest, tally), args.out, echo=args.json)
    code = 0 if tally.passed else 1
    if args.out is not None and not args.json:
        status = "all passed" if code == 0 else "COUNTEREXAMPLE FOUND"
        write_pieces([f"{tally.instances} instances, {tally.checks} checks: {status}\n"])
    return code


def _cmd_diagram(args) -> int:
    doc = parse_document(_read_document(args.document))
    write_pieces([_diagram_dot(doc, args.hom)], args.out)
    return 0


class UsageError(StonecheckError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help text goes through ``write_pieces``, so
    that ``--help`` into a closed stdout exits 0 with nothing on stderr.
    Subcommand parsers are made of the same class."""

    def print_help(self, file=None) -> None:
        if file is None:
            write_pieces([self.format_help()])
        else:
            super().print_help(file)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing never changes it."""
    parser = _Parser(
        prog="stonecheck",
        description=(
            "Finite Boolean algebras, their ultrafilter spaces and canonical "
            "extensions, with exhaustive verification of the extension laws."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dual = sub.add_parser("dual", help="print the dual ultrafilter space of an algebra")
    p_dual.add_argument("document")
    p_dual.add_argument("name")
    p_dual.add_argument("--dot", action="store_true", help="also write a Hasse-diagram DOT file")
    p_dual.add_argument("--out", default=None)
    p_dual.set_defaults(func=_cmd_dual)

    p_canext = sub.add_parser("canext", help="summarize the canonical extension of an algebra")
    p_canext.add_argument("document")
    p_canext.add_argument("name")
    p_canext.set_defaults(func=_cmd_canext)

    p_verify = sub.add_parser("verify", help="verify the extension laws and write a report")
    p_verify.add_argument("document", nargs="?", default=None)
    p_verify.add_argument("hom", nargs="?", default=None)
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument("--max-atoms", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--count", type=int, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--json", action="store_true", help="print the report JSON to stdout")
    p_verify.set_defaults(func=_cmd_verify)

    p_diagram = sub.add_parser("diagram", help="write the construction diagram as DOT")
    p_diagram.add_argument("document")
    p_diagram.add_argument("hom")
    p_diagram.add_argument("--out", default=None)
    p_diagram.set_defaults(func=_cmd_diagram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except LibraryBug as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except StonecheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
