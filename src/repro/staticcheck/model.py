"""Shared analysis substrate: findings, module loading, AST helpers.

Every checker in :mod:`repro.staticcheck` works over the same parsed
view of the tree — a list of :class:`Module` records (path, dotted
module name, AST) plus a project-wide :class:`FunctionIndex` of every
function/method definition. Loading and indexing happen once per run;
the four checkers are pure functions from that view to
:class:`Finding` lists.

Rule IDs are stable and namespaced by checker:

* ``PO0xx`` — persist-ordering (:mod:`repro.staticcheck.persist`)
* ``YP0xx`` — yield-point races (:mod:`repro.staticcheck.yieldrace`)
* ``DT0xx`` / ``EX0xx`` — determinism + exception-hygiene lint
  (:mod:`repro.staticcheck.determinism`)
* ``RG0xx`` — site/counter registry cross-check
  (:mod:`repro.staticcheck.registry`)

Suppressions (``staticcheck.toml``) key on these IDs, so renumbering a
rule is a breaking change to every baseline file downstream.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = [
    "Finding",
    "FunctionIndex",
    "FunctionInfo",
    "Module",
    "RULES",
    "attr_chain",
    "call_name",
    "call_tail",
    "load_modules",
    "walk_functions",
]

#: Rule catalog: id -> one-line description (rendered by --list-rules
#: and DESIGN.md §14; the fixture tests assert each id fires).
RULES: dict[str, str] = {
    "PO001": "publish/atomic store not dominated by a persist of the "
    "written range (flush-at-the-destination violation)",
    "PO002": "RPC reply reachable while durable writes are unpersisted",
    "YP001": "read-modify-write of shared state straddles a sim yield "
    "point without re-reading (stale value published after resume)",
    "DT001": "wall-clock call (time.time/monotonic/perf_counter) in "
    "simulation code",
    "DT002": "datetime.now/utcnow/today in simulation code",
    "DT003": "unseeded randomness (random.*, np.random.*, os.urandom, "
    "uuid.uuid4, secrets.*)",
    "DT004": "id()-keyed ordering (sort key or mapping key)",
    "DT005": "iteration over an unordered set feeding scheduling or "
    "serialization",
    "DT006": "store to an attribute named now outside repro.sim.kernel "
    "(only the kernel moves the simulated clock)",
    "EX001": "bare or over-broad except handler (except / "
    "except Exception / except BaseException)",
    "RG001": "fire() names an injection site missing from the registry",
    "RG002": "fire() f-string site matches no registered site family",
    "RG003": "registered injection site is never fired (dead site)",
    "RG004": "fault-rule site pattern matches no registered site",
    "RG005": "plan-name set inconsistency (NODE_KILL_PLANS vs "
    "SHIPPED_PLANS)",
    "RG006": "CLI table references a metrics/report key no producer "
    "defines",
}


@dataclass(frozen=True)
class Finding:
    """One diagnostic, addressable by a baseline suppression."""

    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    message: str
    symbol: str = ""  # dotted function/method the finding is inside

    def render(self) -> str:
        where = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.path}:{self.line}: {self.rule}{where} {self.message}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }


@dataclass(frozen=True)
class Module:
    """One parsed source file."""

    path: str  # repo-relative
    name: str  # dotted module name ("repro.core.server")
    tree: ast.Module


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition."""

    module: Module
    qualname: str  # "EFactoryServer.publish_object" or "recover_erda"
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_generator(self) -> bool:
        return _contains_yield(self.node)


@dataclass
class FunctionIndex:
    """Name-based call resolution over every definition in the run.

    Python has no static dispatch, so ``x.foo()`` resolves to *every*
    known ``foo`` — the standard flow-insensitive approximation. Good
    enough here because this tree's method names are distinctive
    (``persist_object``, ``repl_wait``); collisions only widen
    summaries, never narrow them, so the approximation is conservative
    for both the may-yield and persists-before-return analyses.
    """

    by_name: dict[str, list[FunctionInfo]] = field(default_factory=dict)
    functions: list[FunctionInfo] = field(default_factory=list)

    def add(self, info: FunctionInfo) -> None:
        self.functions.append(info)
        self.by_name.setdefault(info.name, []).append(info)

    def resolve(self, name: str) -> list[FunctionInfo]:
        """Candidate definitions for a call to bare/attribute ``name``."""
        return self.by_name.get(name, [])


def _contains_yield(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            # yields inside a nested def belong to the nested function
            if _owner_function(fn, node) is fn:
                return True
    return False


def _owner_function(root: ast.AST, target: ast.AST) -> Optional[ast.AST]:
    """The innermost function that lexically owns ``target``."""
    owner = {id(root): root}

    def visit(node: ast.AST, fn: ast.AST) -> Optional[ast.AST]:
        if node is target:
            return fn
        for child in ast.iter_child_nodes(node):
            nxt = fn
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nxt = child
            found = visit(child, nxt)
            if found is not None:
                return found
        return None

    return visit(root, root)


def attr_chain(node: ast.AST) -> Optional[str]:
    """Dotted source form of a Name/Attribute chain, or None.

    ``self.device.buffer`` -> ``"self.device.buffer"``; anything with a
    call/subscript in the middle breaks the chain (returns None).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> Optional[str]:
    """Full dotted name of a call's target, when it is a plain chain."""
    return attr_chain(call.func)


def call_tail(call: ast.Call) -> Optional[str]:
    """Last component of the call target (method name), chain or not."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def load_modules(root: str, *, rel_to: Optional[str] = None) -> list[Module]:
    """Parse every ``.py`` under ``root`` (sorted, deterministic).

    ``rel_to`` sets the base for repo-relative paths in findings
    (defaults to the parent of ``root``'s package directory, falling
    back to the current working directory).
    """
    root = os.path.abspath(root)
    base = os.path.abspath(rel_to) if rel_to else os.getcwd()
    modules: list[Module] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d != "__pycache__" and not d.startswith(".")
        )
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            full = os.path.join(dirpath, fname)
            rel = os.path.relpath(full, base).replace(os.sep, "/")
            with open(full, "r", encoding="utf-8") as fh:
                source = fh.read()
            tree = ast.parse(source, filename=rel)
            modules.append(Module(path=rel, name=_module_name(full, root), tree=tree))
    return modules


def _module_name(full: str, root: str) -> str:
    """Dotted module name relative to the scanned root's package."""
    rel = os.path.relpath(full, os.path.dirname(root))
    rel = rel[:-3] if rel.endswith(".py") else rel
    parts = rel.split(os.sep)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def walk_functions(module: Module) -> Iterator[FunctionInfo]:
    """Yield every function/method with a class-qualified name."""

    def visit(node: ast.AST, prefix: str) -> Iterator[FunctionInfo]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield FunctionInfo(module=module, qualname=qual, node=child)
                yield from visit(child, qual + ".")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            else:
                yield from visit(child, prefix)

    yield from visit(module.tree, "")


def build_index(modules: list[Module]) -> FunctionIndex:
    index = FunctionIndex()
    for module in modules:
        for info in walk_functions(module):
            index.add(info)
    return index


__all__.append("build_index")
