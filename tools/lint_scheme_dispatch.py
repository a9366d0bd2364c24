#!/usr/bin/env python
"""Fail when scheme dispatch or run construction leaks out of its one home.

The CollectiveScheme registry (``repro.comm.scheme``) is the single
dispatch point for collective-communication behaviour. This check scans
``src/repro`` (excluding ``src/repro/comm/``) and reports:

1. ``SchemeKind`` *comparisons* (``scheme == SchemeKind.HYBRID``,
   ``scheme in (SchemeKind.RING, ...)``) — the if/elif ladders the
   registry replaced. Plain attribute references (e.g. the
   ``SystemSpec`` constants naming their scheme) are data, not dispatch,
   and stay allowed.
2. Direct calls to per-scheme latency primitives
   (``*_allreduce_time``, ``hybrid_forced_time``,
   ``plan_hybrid_allreduce``) — callers must go through
   ``estimate_group_step`` / ``price_group_step`` / scheme bindings.

A scenario spec (``repro.scenario``) is the single way to build a run.
Over ``src/repro``, ``benchmarks/`` and ``examples/`` the check also
reports:

3. Calls to ``build_system`` / ``simulate_trace`` / ``build_fleet``
   outside :data:`CONSTRUCTION_ALLOWED` — everything else plans and
   simulates through the runner's ``plan_system`` / ``simulate`` steps.

Exit status 0 when clean, 1 with a finding list otherwise. Wired into
the CI lint job next to ruff.
"""

from __future__ import annotations

import ast
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")
EXCLUDED = os.path.join(SRC, "comm") + os.sep
CONSTRUCTION_DIRS = (
    SRC,
    os.path.join(REPO, "benchmarks"),
    os.path.join(REPO, "examples"),
)

CONSTRUCTION_CALLS = {"build_system", "simulate_trace", "build_fleet"}

#: Files (repo-relative) that may call the constructors directly.
CONSTRUCTION_ALLOWED = {
    "src/repro/scenario/runner.py": "the scenario runner's steps",
    "src/repro/baselines/systems.py": "defines the constructors",
    "src/repro/obs/whatif.py":
        "counterfactual re-simulation of a given planned system",
    "benchmarks/bench_ablation_scheduler.py":
        "ablates the online controller (an arm without one)",
    "examples/autoscaling_fleet.py":
        "drives an AutoScaler over a fleet it builds itself",
}

BANNED_CALLS = {
    "ring_allreduce_time",
    "ina_allreduce_time",
    "hybrid_allreduce_time",
    "twostage_allreduce_time",
    "tree_allreduce_time",
    "hybrid_forced_time",
    "plan_hybrid_allreduce",
}


def _is_schemekind_member(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "SchemeKind"
    )


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[str] = []

    def _flag(self, node: ast.AST, message: str) -> None:
        rel = os.path.relpath(self.path, REPO)
        self.findings.append(f"{rel}:{node.lineno}: {message}")


class _DispatchVisitor(_Visitor):
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        # `x in (SchemeKind.A, SchemeKind.B)` hides members in a
        # container literal; unpack one level.
        for op in list(operands):
            if isinstance(op, (ast.Tuple, ast.List, ast.Set)):
                operands.extend(op.elts)
        if any(_is_schemekind_member(op) for op in operands):
            self._flag(
                node,
                "SchemeKind comparison (dispatch ladder) — resolve via "
                "repro.comm.scheme.get_scheme() instead",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in BANNED_CALLS:
            self._flag(
                node,
                f"direct call to {name}() — use estimate_group_step / "
                "price_group_step or a SchemeBinding",
            )
        self.generic_visit(node)


class _ConstructionVisitor(_Visitor):
    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in CONSTRUCTION_CALLS:
            self._flag(
                node,
                f"direct call to {name}() — build the run from a "
                "repro.scenario spec (plan_system / simulate)",
            )
        self.generic_visit(node)


def lint_file(path: str, visitor_cls=_DispatchVisitor) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    visitor = visitor_cls(path)
    visitor.visit(tree)
    return visitor.findings


def _python_files(root: str):
    for dirpath, _dirnames, filenames in sorted(os.walk(root)):
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                yield os.path.join(dirpath, fname)


def main() -> int:
    findings: list[str] = []
    for path in _python_files(SRC):
        if not path.startswith(EXCLUDED):
            findings.extend(lint_file(path))
    for root in CONSTRUCTION_DIRS:
        for path in _python_files(root):
            rel = os.path.relpath(path, REPO).replace(os.sep, "/")
            if rel not in CONSTRUCTION_ALLOWED:
                findings.extend(lint_file(path, _ConstructionVisitor))
    if findings:
        print("scheme-dispatch lint: FAIL")
        for f in findings:
            print(" ", f)
        return 1
    print("scheme-dispatch lint: OK (no SchemeKind ladders or direct "
          "latency-primitive calls outside repro/comm/; runs built "
          "only through repro.scenario)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
