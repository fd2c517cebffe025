"""Buffer-provenance rules RC001–RC004 over the dataflow IR.

The runtime layer threads long-lived storage through ``out=`` /
``workspace=`` parameters and writes factor shards into shared memory
from fork workers.  These rules track where each buffer *came from*
(arena key, alias root) and flag the ways that plumbing goes wrong:
an ``out=`` that aliases an operand of a non-elementwise kernel, a
sharded writer escaping its ``[lo:hi)`` row range, one arena key
borrowed under two live names, and worker closures smuggling parent
state across the fork boundary.

Every rule has a dynamic witness in
:class:`repro.runtime.sanitizer.ArenaSanitizer` (``REPRO_SANITIZE=1``).
"""

from __future__ import annotations

import ast

from ..diagnostics import Diagnostic, Severity, register_rule
from .ir import FunctionIR, ProgramIR, is_arena_request, arena_request_key

__all__ = ["RC001", "RC002", "RC003", "RC004", "check_provenance"]

RC001 = register_rule(
    "RC001",
    "out= buffer may alias an operand of a non-elementwise kernel",
    "runtime contract: gather/contract kernels read operands after writing out",
)
RC002 = register_rule(
    "RC002",
    "sharded write not confined to the caller's row slice",
    "paper §III Solution 2: shards own disjoint contiguous row ranges",
)
RC003 = register_rule(
    "RC003",
    "arena buffer borrowed by two live names",
    "runtime contract: one live view per workspace key",
)
RC004 = register_rule(
    "RC004",
    "worker closure captures mutable parent state",
    "runtime contract: fork workers receive state via supervisor._FORK_CTX, not closures",
)

#: Kernels where out= aliasing an operand corrupts the result: they read
#: operand elements after (or interleaved with) writing ``out``.
#: Elementwise ufuncs (add, clip, minimum, copyto, ...) are exempt —
#: in-place elementwise updates are a sanctioned idiom.
_NON_ELEMENTWISE = frozenset(
    {
        "matmul",
        "einsum",
        "dot",
        "tensordot",
        "inner",
        "outer",
        "cross",
        "take",
        "reduceat",
        "solve",
        "cumsum",
        "sort",
    }
)

#: Callables that dispatch a worker onto another process/thread.  The
#: first positional argument (or ``target=``) names the worker.
_DISPATCH_POSITIONAL = frozenset(
    {"map", "imap", "imap_unordered", "starmap", "submit", "apply_async"}
)
_DISPATCH_TARGET = frozenset({"Process", "Thread"})


def _basename(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _keyword(node: ast.Call, name: str) -> ast.expr | None:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _subject(fn: FunctionIR, node: ast.AST) -> str:
    return f"{fn.filename}:{getattr(node, 'lineno', 0)}"


# ---------------------------------------------------------------------------
# RC001 — out= aliasing an operand
# ---------------------------------------------------------------------------


def _check_out_aliasing(fn: FunctionIR, out: list[Diagnostic]) -> None:
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        if _basename(node.func) not in _NON_ELEMENTWISE:
            continue
        out_kw = _keyword(node, "out")
        if out_kw is None:
            continue
        dst_root = fn.resolve_root(out_kw)
        dst_key = fn.infer(out_kw).arena_key
        for arg in node.args:
            if isinstance(arg, ast.Constant):
                continue  # einsum subscripts
            src_root = fn.resolve_root(arg)
            src_key = fn.infer(arg).arena_key
            same_root = dst_root is not None and src_root == dst_root
            same_key = dst_key is not None and src_key == dst_key
            if same_root or same_key:
                what = (
                    f"arena key {dst_key!r}" if same_key else f"buffer {dst_root!r}"
                )
                out.append(
                    Diagnostic(
                        rule_id=RC001,
                        severity=Severity.ERROR,
                        subject=_subject(fn, node),
                        message=(
                            f"{_basename(node.func)} in {fn.name} writes out= "
                            f"into {what}, which also backs an operand"
                        ),
                        hint="stage the result through a distinct workspace key",
                    )
                )
                break


# ---------------------------------------------------------------------------
# RC002 — shard writes escaping [lo:hi)
# ---------------------------------------------------------------------------


def _is_exact_slice(node: ast.expr, base: str, lo: str, hi: str) -> bool:
    """``<base>[lo:hi]`` exactly (no step, no other bounds)."""
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == base
        and isinstance(node.slice, ast.Slice)
        and isinstance(node.slice.lower, ast.Name)
        and node.slice.lower.id == lo
        and isinstance(node.slice.upper, ast.Name)
        and node.slice.upper.id == hi
        and node.slice.step is None
    )


def _check_shard_confinement(fn: FunctionIR, out: list[Diagnostic]) -> None:
    params = set(fn.params)
    if not {"out", "lo", "hi"} <= params:
        return
    # names bound exactly to out[lo:hi] are the sanctioned write window
    confined: set[str] = set()
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _is_exact_slice(node.value, "out", "lo", "hi")
        ):
            confined.add(node.targets[0].id)

    def flag(node: ast.AST, how: str) -> None:
        out.append(
            Diagnostic(
                rule_id=RC002,
                severity=Severity.ERROR,
                subject=_subject(fn, node),
                message=(
                    f"{fn.name} {how} outside its [lo:hi) shard slice; "
                    "concurrent shards would race on those rows"
                ),
                hint="write through an out[lo:hi] view only",
            )
        )

    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and fn.resolve_root(target.value) == "out"
                    and not _is_exact_slice(target, "out", "lo", "hi")
                    and not (
                        isinstance(target.value, ast.Name)
                        and target.value.id in confined
                    )
                ):
                    flag(node, "stores into the shared output")
        elif isinstance(node, ast.Call):
            sinks: list[ast.expr] = []
            out_kw = _keyword(node, "out")
            if out_kw is not None:
                sinks.append(out_kw)
            if _basename(node.func) == "copyto" and node.args:
                sinks.append(node.args[0])
            for sink in sinks:
                if (
                    isinstance(sink, ast.Name)
                    and fn.resolve_root(sink) == "out"
                    and sink.id not in confined
                ):
                    flag(node, "hands the whole shared output to a writer")
                elif (
                    isinstance(sink, ast.Subscript)
                    and fn.resolve_root(sink.value) == "out"
                    and not _is_exact_slice(sink, "out", "lo", "hi")
                    and not (
                        isinstance(sink.value, ast.Name)
                        and sink.value.id in confined
                    )
                ):
                    flag(node, "writes the shared output")


# ---------------------------------------------------------------------------
# RC003 — double-borrowed arena keys
# ---------------------------------------------------------------------------


def _check_double_borrow(fn: FunctionIR, out: list[Diagnostic]) -> None:
    borrows: dict[str, list[tuple[str, int]]] = {}
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and is_arena_request(node.value)
        ):
            key = arena_request_key(node.value)
            borrows.setdefault(key, []).append(
                (node.targets[0].id, node.lineno)
            )
    # last line each name is loaded on: the liveness horizon
    last_use: dict[str, int] = {}
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            last_use[node.id] = max(last_use.get(node.id, 0), node.lineno)
    for key, sites in borrows.items():
        names = {name for name, _ in sites}
        if len(names) < 2:
            continue  # re-requesting into the same name is a refresh, not a borrow
        sites.sort(key=lambda s: s[1])
        for (name_a, line_a), (name_b, line_b) in zip(sites, sites[1:]):
            if name_a != name_b and last_use.get(name_a, 0) > line_b:
                out.append(
                    Diagnostic(
                        rule_id=RC003,
                        severity=Severity.ERROR,
                        subject=f"{fn.filename}:{line_b}",
                        message=(
                            f"workspace key {key!r} in {fn.name} is borrowed by "
                            f"{name_b!r} while {name_a!r} (line {line_a}) is still "
                            "live; both names view the same storage"
                        ),
                        hint="use distinct workspace keys for distinct lifetimes",
                    )
                )


# ---------------------------------------------------------------------------
# RC004 — worker closures over parent locals
# ---------------------------------------------------------------------------


def _assigned_names(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Store, ast.Del)):
            names.add(n.id)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(n.name)
    return names


def _worker_free_names(worker: ast.Lambda | ast.FunctionDef) -> set[str]:
    if isinstance(worker, ast.Lambda):
        params = {a.arg for a in worker.args.args}
        body: ast.AST = worker.body
    else:
        params = {
            a.arg
            for a in (
                *worker.args.posonlyargs,
                *worker.args.args,
                *worker.args.kwonlyargs,
            )
        }
        body = worker
    bound = params | _assigned_names(body)
    return {
        n.id
        for n in ast.walk(body)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        and n.id not in bound
    }


def _check_worker_captures(fn: FunctionIR, out: list[Diagnostic]) -> None:
    nested_defs = {
        n.name: n
        for n in ast.walk(fn.node)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n is not fn.node
    }
    fn_locals = set(fn.params) | _assigned_names(fn.node) - set(nested_defs)
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        base = _basename(node.func)
        worker_expr: ast.expr | None = None
        if base in _DISPATCH_POSITIONAL and node.args:
            worker_expr = node.args[0]
        elif base in _DISPATCH_TARGET:
            worker_expr = _keyword(node, "target")
        if worker_expr is None:
            continue
        worker: ast.Lambda | ast.FunctionDef | None = None
        if isinstance(worker_expr, ast.Lambda):
            worker = worker_expr
        elif isinstance(worker_expr, ast.Name):
            worker = nested_defs.get(worker_expr.id)
        if worker is None:
            continue  # module-level worker: state crosses via explicit context
        captured = sorted(_worker_free_names(worker) & fn_locals)
        if captured:
            out.append(
                Diagnostic(
                    rule_id=RC004,
                    severity=Severity.WARNING,
                    subject=_subject(fn, node),
                    message=(
                        f"worker dispatched in {fn.name} closes over parent "
                        f"local(s) {', '.join(repr(c) for c in captured)}; "
                        "fork workers must not share mutable parent state"
                    ),
                    hint="pass state through the task tuple or a module-level "
                    "fork context",
                )
            )


def check_provenance(prog: ProgramIR) -> list[Diagnostic]:
    """Run RC001–RC004 over every function in the program IR."""
    out: list[Diagnostic] = []
    for fn in prog.functions:
        _check_out_aliasing(fn, out)
        _check_shard_confinement(fn, out)
        _check_double_borrow(fn, out)
        _check_worker_captures(fn, out)
    return out
