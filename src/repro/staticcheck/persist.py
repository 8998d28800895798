"""PO: persist-ordering checker (flush-at-the-destination discipline).

The durable-publish invariant this tree inherits from the paper (and
from the NVTraverse / durable-sets lineage in PAPERS.md): object bytes
must reach a ``persist()``/``flush()`` boundary *before* any operation
that makes them reachable — an 8-byte atomic pointer/slot store, a hash
entry insert, or an RPC reply acking durability. A publish of
unpersisted bytes is exactly the bug class the crash matrix exists to
catch at runtime; this checker catches it at review time.

Analysis model
--------------
Flow-sensitive walk of each function body in statement order (branches
analyzed independently from the pre-state and joined by union of
surviving facts — i.e. a write is only considered persisted when every
path persists it; loop bodies are walked once).

* A *write op* (``pool.write``, ``device.copy_in`` ...) adds a dirty
  fact tagged with the write's base token (the receiver/argument names)
  — a cheap alias class standing in for the written range.
* A *persist op* (``persist``, ``flush``, ``persist_object``,
  ``persist_header`` ...) clears facts whose token appears among the
  persist call's receiver or argument names; a persist with no
  matchable token clears everything (conservative against noise, not
  against bugs: the no-persist-at-all case is what PO001 targets).
* A *publish op* (``write_atomic64``, ``set_cur``/``set_alt``/
  ``promote_alt``, ``publish_object``) while any fact is dirty raises
  **PO001**.
* A ``return`` from an RPC handler (``_handle_*`` generator) with dirty
  facts raises **PO002** — acking a client while bytes are volatile —
  unless the return is an ``rpc_error(...)`` (a nack promises nothing).

Interprocedural summaries (fixpoint over the name-resolved call graph):
a helper whose every path ends persisted-and-clean acts as a persist
barrier at its call sites ("persists-before-return"); a helper that may
return with dirty facts contributes a dirty fact at its call sites.
Summaries are consulted for **same-module** callees only — bare-name
resolution across the whole tree lets unrelated ``fire``/``get``/
``record`` definitions poison call sites, and the named persist/write/
publish vocabularies already cover the cross-module protocol surface.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.staticcheck.model import (
    Finding,
    FunctionIndex,
    FunctionInfo,
    Module,
    attr_chain,
    call_tail,
)

__all__ = ["check_persist_ordering"]

#: Calls that deposit bytes into PersistentBuffer-backed regions.
WRITE_TAILS = frozenset({"write", "copy_in", "set_object_flags", "flush_torn"})

#: Calls that drive the written range to the power-fail domain.
PERSIST_TAILS = frozenset(
    {
        "persist",
        "flush",
        "persist_object",
        "persist_header",
        "persist_entry",
        "persist_entry_timed",
    }
)

#: Calls that make written bytes reachable (publish boundaries).
PUBLISH_TAILS = frozenset(
    {
        "write_atomic64",
        "set_cur",
        "set_alt",
        "promote_alt",
        "publish_object",
        "_write_word",
        "find_or_create",
    }
)

#: Base tokens whose ``.write`` is not NVM (file handles, streams).
_NON_NVM_BASES = frozenset({"fh", "f", "file", "out", "sys", "buf", "io"})


@dataclass
class _Summary:
    """Interprocedural facts for one function name."""

    persists_before_return: bool = False
    may_leave_dirty: bool = False


@dataclass
class _State:
    """Dirty facts live here; keyed by alias token -> first write line."""

    dirty: dict[str, int] = field(default_factory=dict)
    #: Has a persist op happened on this path since the last write?
    persisted_any: bool = False

    def copy(self) -> "_State":
        return _State(dict(self.dirty), self.persisted_any)

    @staticmethod
    def join(states: list["_State"]) -> "_State":
        out = _State()
        for st in states:
            out.dirty.update(st.dirty)
        out.persisted_any = all(st.persisted_any for st in states)
        return out


def _base_token(node: ast.AST) -> str | None:
    """Root name of an expression (``pool.abs_addr(x)`` -> ``pool``)."""
    while True:
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            return node.id
        else:
            return None


def _call_tokens(call: ast.Call) -> set[str]:
    """Alias tokens a call touches: receiver chain root + argument roots."""
    tokens: set[str] = set()
    if isinstance(call.func, ast.Attribute):
        root = _base_token(call.func.value)
        if root is not None:
            tokens.add(root)
        # one attribute step too: self.device vs self.pools
        chain = attr_chain(call.func.value)
        if chain is not None:
            tokens.add(chain)
    for arg in call.args:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Name):
                tokens.add(sub.id)
    return tokens


def _receiver_token(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return _base_token(call.func.value)
    return None


def _is_error_return(node: ast.Return) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and call_tail(sub) == "rpc_error":
            return True
    return False


class _FunctionChecker:
    def __init__(
        self,
        info: FunctionInfo,
        summaries: dict[str, dict[str, _Summary]],
        known: set[str],
        collect: list[Finding] | None,
    ) -> None:
        self.info = info
        self.summaries = summaries.get(info.module.name, {})
        self.known = known
        self.collect = collect
        self.is_handler = info.name.startswith("_handle_")
        self.ended_dirty = False
        self.all_paths_persist = True  # refined during the walk

    # -- statement walk ------------------------------------------------------
    def run(self) -> _State:
        state = _State()
        state = self.walk_body(self.info.node.body, state)
        self.ended_dirty = bool(state.dirty)
        return state

    def walk_body(self, body: list[ast.stmt], state: _State) -> _State:
        for stmt in body:
            state = self.walk_stmt(stmt, state)
        return state

    def walk_stmt(self, stmt: ast.stmt, state: _State) -> _State:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return state  # nested defs analyzed on their own
        if isinstance(stmt, ast.If):
            then = self.walk_body(stmt.body, state.copy())
            other = self.walk_body(stmt.orelse, state.copy())
            return _State.join([then, other])
        if isinstance(stmt, (ast.For, ast.While)):
            self.scan_expr(getattr(stmt, "iter", None) or getattr(stmt, "test"), state)
            body = self.walk_body(stmt.body, state.copy())
            done = self.walk_body(stmt.orelse, body.copy())
            return _State.join([state, done])
        if isinstance(stmt, ast.Try):
            body = self.walk_body(stmt.body, state.copy())
            states = [body]
            for handler in stmt.handlers:
                states.append(self.walk_body(handler.body, state.copy()))
            merged = _State.join(states)
            merged = self.walk_body(stmt.orelse, merged)
            return self.walk_body(stmt.finalbody, merged)
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self.scan_expr(item.context_expr, state)
            return self.walk_body(stmt.body, state)
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.scan_expr(stmt.value, state)
            if (
                self.is_handler
                and state.dirty
                and not _is_error_return(stmt)
                and self.collect is not None
            ):
                first = min(state.dirty.values())
                self.collect.append(
                    Finding(
                        rule="PO002",
                        path=self.info.module.path,
                        line=stmt.lineno,
                        symbol=self.info.qualname,
                        message=(
                            "RPC handler replies while writes from line "
                            f"{first} are unpersisted (ack implies "
                            "durability; persist or reply rpc_error)"
                        ),
                    )
                )
            return state
        # generic statement: scan contained expressions in order
        for node in ast.iter_child_nodes(stmt):
            self.scan_expr(node, state)
        return state

    # -- expression scan (calls in evaluation order) -------------------------
    def scan_expr(self, node: ast.AST | None, state: _State) -> None:
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self.apply_call(sub, state)

    def apply_call(self, call: ast.Call, state: _State) -> None:
        tail = call_tail(call)
        if tail is None:
            return
        if tail in PERSIST_TAILS:
            self.apply_persist(call, state)
            return
        if tail in PUBLISH_TAILS:
            self.apply_publish(call, tail, state)
            return
        if tail in WRITE_TAILS:
            recv = _receiver_token(call)
            if tail == "write" and (recv is None or recv in _NON_NVM_BASES):
                return
            token = recv or tail
            state.dirty.setdefault(token, call.lineno)
            state.persisted_any = False
            return
        # interprocedural: helper summaries
        summary = self.summaries.get(tail)
        if summary is None:
            return
        if summary.persists_before_return:
            self.apply_persist(call, state)
        elif summary.may_leave_dirty:
            token = _receiver_token(call) or tail
            state.dirty.setdefault(token, call.lineno)
            state.persisted_any = False

    def apply_persist(self, call: ast.Call, state: _State) -> None:
        state.persisted_any = True
        tokens = _call_tokens(call)
        if not tokens:
            state.dirty.clear()
            return
        matched = [t for t in state.dirty if t in tokens]
        if matched:
            for t in matched:
                del state.dirty[t]
        else:
            # No token overlap: assume the persist covers the pending
            # writes anyway (ranges, not names, are what matter; names
            # are only a refinement). The no-persist case is the bug.
            state.dirty.clear()

    def apply_publish(self, call: ast.Call, tail: str, state: _State) -> None:
        if not state.dirty or self.collect is None:
            return
        first_line = min(state.dirty.values())
        tokens = ", ".join(sorted(state.dirty))
        self.collect.append(
            Finding(
                rule="PO001",
                path=self.info.module.path,
                line=call.lineno,
                symbol=self.info.qualname,
                message=(
                    f"publish op {tail!r} reachable with writes to "
                    f"[{tokens}] (line {first_line}) not persisted on "
                    "every path"
                ),
            )
        )
        # report once per publish; assume intent was persisted
        state.dirty.clear()


def _compute_summaries(
    index: FunctionIndex,
) -> dict[str, dict[str, _Summary]]:
    """Fixpoint of persists-before-return / may-leave-dirty, per module.

    Keyed module -> bare name -> summary; a checker only consults its
    own module's table (see the module docstring for why).
    """
    summaries: dict[str, dict[str, _Summary]] = {}
    known = set(index.by_name)
    for _round in range(4):
        changed = False
        per_name: dict[tuple[str, str], list[tuple[bool, bool]]] = {}
        for info in index.functions:
            end = _FunctionChecker(info, summaries, known, collect=None).run()
            per_name.setdefault((info.module.name, info.name), []).append(
                (end.persisted_any and not end.dirty, bool(end.dirty))
            )
        for (mod, name), results in per_name.items():
            # merge across same-name defs: barrier only if every def is,
            # dirty if any def is
            merged = _Summary(
                persists_before_return=all(p for p, _ in results),
                may_leave_dirty=any(d for _, d in results),
            )
            table = summaries.setdefault(mod, {})
            if table.get(name) != merged:
                table[name] = merged
                changed = True
        if not changed:
            break
    return summaries


def check_persist_ordering(
    modules: list[Module], index: FunctionIndex
) -> list[Finding]:
    summaries = _compute_summaries(index)
    findings: list[Finding] = []
    known = set(index.by_name)
    for info in index.functions:
        has_boundary = any(
            isinstance(n, ast.Call) and call_tail(n) in PUBLISH_TAILS
            for n in ast.walk(info.node)
        )
        if not (has_boundary or info.name.startswith("_handle_")):
            continue
        checker = _FunctionChecker(info, summaries, known, collect=findings)
        checker.run()
    return findings
