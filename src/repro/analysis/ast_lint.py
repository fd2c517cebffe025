"""Repo-specific AST lint for the ``repro`` source tree itself.

Generic linters cannot know this codebase's conventions; these rules can:

* ``AL001`` — no bare float-literal equality.  Cost models compare
  measured floats; ``x == 0.5`` is a rounding accident waiting to happen
  (exact sentinels ``0.0`` / ``±1.0`` are allowed).
* ``AL002`` — bytes-vs-elements argument discipline.  The gpusim API
  mixes byte counts and element counts; passing a variable named like an
  element count to a ``*_bytes`` parameter (or vice versa) is the classic
  4x/8x traffic bug.
* ``AL003`` — frozen dataclasses must *validate*: a ``__post_init__``
  that never raises is vacuous, and ``*Config`` dataclasses must define
  one (they are the package's user-facing input surface).
* ``AL004`` — no imports inside function bodies; module scope keeps the
  import graph visible and avoids per-call overhead in hot paths
  (``_tail_factor``'s old ``import math`` was the seed example).
* ``AL005`` — no NumPy array allocation inside loops of the hot path
  (``repro/core`` and ``repro/runtime`` only).  The runtime arena exists
  so that epoch loops allocate nothing; an ``np.zeros``/``np.empty``
  inside a loop there quietly reintroduces per-epoch churn — request a
  workspace buffer (or hoist the allocation) instead.

``lint_tree`` walks a directory; per-file ignores cover the deliberate
exceptions (``cli.py`` lazily imports heavy subsystems inside
subcommands to keep ``repro --help`` fast; the runtime bench lazily
imports the serving and streaming layers to keep the layering
acyclic).  See :data:`DEFAULT_IGNORES`.
"""

from __future__ import annotations

import ast
import os
from collections.abc import Iterable, Mapping

from .diagnostics import Diagnostic, Severity, register_rule

__all__ = [
    "AL001",
    "AL002",
    "AL003",
    "AL004",
    "AL005",
    "DEFAULT_IGNORES",
    "lint_source",
    "lint_file",
    "lint_tree",
]

AL001 = register_rule(
    "AL001",
    "bare float-literal equality comparison",
    "repo convention: measured floats never compare exactly",
)
AL002 = register_rule(
    "AL002",
    "bytes-vs-elements argument mismatch",
    "repo convention: *_bytes parameters take byte counts, never element counts",
)
AL003 = register_rule(
    "AL003",
    "frozen dataclass does not validate in __post_init__",
    "repo convention: invalid configs must fail at construction",
)
AL004 = register_rule(
    "AL004",
    "import inside a function body",
    "repo convention: imports live at module scope",
)
AL005 = register_rule(
    "AL005",
    "NumPy allocation inside a hot-path loop",
    "repo convention: epoch loops stage scratch through the workspace arena",
)

#: Path fragments marking the hot path where AL005 applies.  Everything
#: under repro/core and repro/runtime runs inside training epochs, and
#: the serving batcher/engine run inside the request loop; other
#: packages (metrics, harness, ...) may allocate in loops freely.
_HOT_PATH_FRAGMENTS = (
    "/core/",
    "/runtime/",
    "/serving/batcher.py",
    "/serving/engine.py",
)

#: numpy constructors AL005 flags when called inside a loop.
_ALLOC_FUNCS = frozenset(
    {
        "zeros",
        "empty",
        "full",
        "ones",
        "zeros_like",
        "empty_like",
        "full_like",
        "ones_like",
    }
)

#: Relative-path suffixes mapped to the rule IDs ignored there.  cli.py's
#: subcommands import numpy-heavy subsystems lazily so ``repro --help``
#: stays instant; the runtime's bench harness imports the serving and
#: streaming layers lazily because they sit *above* the runtime in the
#: layering — a module-scope import there would point the dependency
#: arrow the wrong way.
DEFAULT_IGNORES: Mapping[str, frozenset[str]] = {
    "cli.py": frozenset({AL004}),
    "runtime/bench.py": frozenset({AL004}),
}

#: Exact float values allowed in equality comparisons (exact sentinels).
_SENTINEL_FLOATS = (0.0, 1.0, -1.0)

_BYTES_MARKERS = ("bytes",)
_ELEMENTS_MARKERS = ("element", "elements", "nnz", "count")


def _name_of(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _looks_like_bytes(name: str) -> bool:
    low = name.lower()
    return any(m in low for m in _BYTES_MARKERS)


def _looks_like_elements(name: str) -> bool:
    low = name.lower()
    if _looks_like_bytes(low):
        return False
    return any(m in low for m in _ELEMENTS_MARKERS)


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        func = deco.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name != "dataclass":
            continue
        for kw in deco.keywords:
            if (
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return True
    return False


def _contains_raise(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Raise) for sub in ast.walk(node))


class _Visitor(ast.NodeVisitor):
    def __init__(self, filename: str, active_rules: frozenset[str]) -> None:
        self.filename = filename
        self.active = active_rules
        self.findings: list[Diagnostic] = []
        self._function_depth = 0
        self._loop_depth = 0

    # -- helpers -----------------------------------------------------------
    def _emit(self, rule: str, line: int, message: str, hint: str = "") -> None:
        if rule not in self.active:
            return
        self.findings.append(
            Diagnostic(
                rule_id=rule,
                severity=Severity.WARNING,
                subject=f"{self.filename}:{line}",
                message=message,
                hint=hint,
            )
        )

    # -- AL004: function-body imports --------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    def _check_import(self, node: ast.Import | ast.ImportFrom) -> None:
        if self._function_depth > 0:
            if isinstance(node, ast.ImportFrom):
                what = node.module or "." * node.level
            else:
                what = ", ".join(alias.name for alias in node.names)
            self._emit(
                AL004,
                node.lineno,
                f"import of {what!r} inside a function body",
                "move the import to module scope",
            )
        self.generic_visit(node)

    visit_Import = _check_import
    visit_ImportFrom = _check_import

    # -- AL001: float-literal equality --------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for operand in (node.left, *node.comparators):
                if (
                    isinstance(operand, ast.Constant)
                    and isinstance(operand.value, float)
                    and operand.value not in _SENTINEL_FLOATS
                ):
                    self._emit(
                        AL001,
                        node.lineno,
                        f"equality comparison against float literal {operand.value!r}",
                        "use math.isclose / a tolerance, or compare integers",
                    )
                    break
        self.generic_visit(node)

    # -- AL005: loop-body allocations ----------------------------------------
    def _check_loop(self, node: ast.For | ast.While | ast.AsyncFor) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_For = _check_loop
    visit_While = _check_loop
    visit_AsyncFor = _check_loop

    def _check_allocation(self, node: ast.Call) -> None:
        if self._loop_depth == 0:
            return
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _ALLOC_FUNCS:
            return
        module = func.value
        if isinstance(module, ast.Name) and module.id in ("np", "numpy"):
            self._emit(
                AL005,
                node.lineno,
                f"np.{func.attr} allocates inside a loop on the hot path",
                "hoist the allocation or request a workspace arena buffer",
            )

    # -- AL002: bytes-vs-elements keyword mixups ----------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_allocation(node)
        for kw in node.keywords:
            if kw.arg is None:
                continue
            value_name = _name_of(kw.value)
            if not value_name:
                continue
            if _looks_like_bytes(kw.arg) and _looks_like_elements(value_name):
                self._emit(
                    AL002,
                    node.lineno,
                    f"byte-count parameter {kw.arg!r} receives element-count "
                    f"variable {value_name!r}",
                    "multiply by the element size (or rename the variable)",
                )
            elif _looks_like_elements(kw.arg) and _looks_like_bytes(value_name):
                self._emit(
                    AL002,
                    node.lineno,
                    f"element-count parameter {kw.arg!r} receives byte-count "
                    f"variable {value_name!r}",
                    "divide by the element size (or rename the variable)",
                )
        self.generic_visit(node)

    # -- AL003: frozen dataclass validation ---------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if _is_frozen_dataclass(node):
            post_init = next(
                (
                    item
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                ),
                None,
            )
            if post_init is not None and not _contains_raise(post_init):
                self._emit(
                    AL003,
                    post_init.lineno,
                    f"frozen dataclass {node.name!r} has a __post_init__ that "
                    "never raises — validation is vacuous",
                    "raise ValueError on invalid fields, or drop the method",
                )
            elif post_init is None and node.name.endswith("Config"):
                self._emit(
                    AL003,
                    node.lineno,
                    f"config dataclass {node.name!r} defines no __post_init__ "
                    "validation",
                    "validate every field so bad configs fail at construction",
                )
        self.generic_visit(node)


def _active_rules(
    filename: str, ignores: Mapping[str, Iterable[str]]
) -> frozenset[str]:
    active = {AL001, AL002, AL003, AL004}
    norm = filename.replace(os.sep, "/")
    # AL005 is scoped to the training hot path; a leading "/" makes the
    # fragment match also when the label starts with "core/...".
    if any(frag in f"/{norm}" for frag in _HOT_PATH_FRAGMENTS):
        active.add(AL005)
    for suffix, ignored in ignores.items():
        if norm.endswith(suffix):
            active -= set(ignored)
    return frozenset(active)


def lint_source(
    source: str,
    filename: str = "<string>",
    *,
    ignores: Mapping[str, Iterable[str]] = DEFAULT_IGNORES,
) -> list[Diagnostic]:
    """Lint one Python source string; ``filename`` labels the findings."""
    tree = ast.parse(source, filename=filename)
    visitor = _Visitor(filename, _active_rules(filename, ignores))
    visitor.visit(tree)
    return visitor.findings


def lint_file(
    path: str | os.PathLike,
    *,
    label: str | None = None,
    ignores: Mapping[str, Iterable[str]] = DEFAULT_IGNORES,
) -> list[Diagnostic]:
    """Lint one ``.py`` file from disk."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    return lint_source(source, label or str(path), ignores=ignores)


def lint_tree(
    root: str | os.PathLike,
    *,
    ignores: Mapping[str, Iterable[str]] = DEFAULT_IGNORES,
) -> list[Diagnostic]:
    """Lint every ``.py`` file under ``root`` (skipping ``__pycache__``).

    Findings are labeled with paths relative to ``root``'s parent so the
    output reads ``repro/gpusim/kernel.py:91`` regardless of cwd.
    """
    root = os.path.abspath(os.fspath(root))
    if not os.path.exists(root):
        # A missing root must not read as "no findings" — it would
        # silently green-light the CI self-lint gate.
        raise FileNotFoundError(f"lint root does not exist: {root}")
    if os.path.isfile(root):
        return lint_file(root, label=os.path.basename(root), ignores=ignores)
    base = os.path.dirname(root)
    findings: list[Diagnostic] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if not fn.endswith(".py"):
                continue
            full = os.path.join(dirpath, fn)
            label = os.path.relpath(full, base).replace(os.sep, "/")
            findings.extend(lint_file(full, label=label, ignores=ignores))
    return findings
