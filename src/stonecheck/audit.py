"""Static ownership audit for the two independent extension computations.

The filter-formula path (rooted at ``extension.sigma_extend``) and the
diagram-chase path (rooted at ``harness.build_diagram`` and
``harness.double_dual_map``) may share only the helpers named in
``SHARED_ALLOWED``: the ultrafilters of an algebra and two error types.
This module extracts a call graph of module-level functions from the
package source with ``ast`` and reports any helper reachable from both
roots that is not on that list, so a new shared helper, even one in the
algebra core, must be added to it by name.

The analysis covers module-level function calls (plain names and
``module.function`` attributes resolved through the package imports);
methods of the core data types count as part of their owning module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

SIGMA_ROOTS = ("extension.sigma_extend",)
DIAGRAM_ROOTS = ("harness.build_diagram", "harness.double_dual_map")

# The helpers both paths may reach, by name.
SHARED_ALLOWED = ("algebra.ultrafilters", "errors.DegenerateAlgebra", "errors.InvariantViolation")

_MODULES = (
    "algebra",
    "duality",
    "extension",
    "compactification",
    "harness",
)


@dataclass(frozen=True)
class AuditResult:
    sigma_reachable: tuple[str, ...]
    diagram_reachable: tuple[str, ...]
    shared: tuple[str, ...]
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _call_graph() -> dict[str, set[str]]:
    package_dir = Path(__file__).resolve().parent
    graph: dict[str, set[str]] = {}
    defined: set[str] = set()
    parsed = {}
    imports: dict[str, dict[str, str]] = {}

    for module in _MODULES:
        tree = ast.parse((package_dir / f"{module}.py").read_text())
        parsed[module] = tree
        alias_map: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    alias_map[local] = f"{node.module}.{alias.name}"
        imports[module] = alias_map
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(f"{module}.{node.name}")

    for module, tree in parsed.items():
        alias_map = imports[module]
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            qualified = f"{module}.{node.name}"
            calls: set[str] = set()
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                if isinstance(func, ast.Name):
                    name = func.id
                    if name in alias_map:
                        calls.add(alias_map[name])
                    elif f"{module}.{name}" in defined:
                        calls.add(f"{module}.{name}")
                elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                    target = f"{func.value.id}.{func.attr}"
                    if target in defined:
                        calls.add(target)
            graph[qualified] = calls
    return graph


def _reachable(graph: dict[str, set[str]], roots: tuple[str, ...]) -> set[str]:
    seen: set[str] = set()
    stack = list(roots)
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(graph.get(current, ()))
    return seen


def audit_ownership() -> AuditResult:
    """Compute the helpers shared by the two paths and flag the disallowed ones."""
    graph = _call_graph()
    sigma = _reachable(graph, SIGMA_ROOTS)
    diagram = _reachable(graph, DIAGRAM_ROOTS)
    shared = sorted((sigma & diagram) - set(SIGMA_ROOTS) - set(DIAGRAM_ROOTS))
    violations = tuple(name for name in shared if name not in SHARED_ALLOWED)
    return AuditResult(
        tuple(sorted(sigma)), tuple(sorted(diagram)), tuple(shared), violations
    )
