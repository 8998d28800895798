"""DT/EX: determinism + exception-hygiene lint for ``src/repro/``.

Everything under ``src/repro`` must be a pure function of
``(config, seed, workload)``: fig1/fig2 and the 82-point crash matrix
are asserted *bit-identical* across runs and across the analytic fast
path (ROADMAP standing invariant). One wall-clock read or unseeded
draw in a scheduling- or serialization-feeding path breaks that
silently and only surfaces as a flaky chaos run. Randomness must come
from :class:`repro.sim.rng.RngRegistry` streams; simulated time from
``env.now``.

Rules:

* **DT001** — wall-clock: ``time.time``/``time.time_ns``/
  ``time.monotonic``/``time.perf_counter`` (the runner's own
  reporting-only timer is the one deliberate, suppressed exception;
  host-clock measurement lives in ``bench/``, outside the package).
* **DT002** — calendar time: ``datetime.now``/``utcnow``/``today``.
* **DT003** — unseeded randomness: module-level ``random.*``,
  ``np.random.<draw>`` (global-state numpy draws; ``default_rng`` and
  ``Generator`` methods are fine), ``os.urandom``, ``uuid.uuid1/4``,
  ``secrets.*``.
* **DT004** — ``id()``-keyed ordering: ``key=id`` in ``sort``/
  ``sorted``/``min``/``max``, or ``id(...)`` as a mapping/set key
  (CPython address order varies run to run).
* **DT005** — iterating an unordered ``set`` into scheduling or
  serialization: ``for`` / comprehension over a set literal,
  ``set(...)`` call, set comprehension, or a local bound to one —
  unless wrapped in ``sorted(...)``.
* **DT006** — a store or augmented store to an attribute named ``now``
  outside :mod:`repro.sim.kernel`. ``Environment.now`` is a plain
  attribute that only the kernel writes as it pops events; anything
  else moving the clock desynchronises it from the event queue.
* **EX001** — bare ``except:``, ``except Exception:`` or
  ``except BaseException:``: the tree's own
  :class:`~repro.errors.ReproError` hierarchy exists precisely so
  library failures can be caught without masking programming errors
  (and without swallowing :class:`~repro.errors.PowerFailure`).
"""

from __future__ import annotations

import ast

from repro.staticcheck.model import Finding, Module, attr_chain

__all__ = ["check_determinism"]

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
}
_CALENDAR = {
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
}
#: Global-state draws on the stdlib ``random`` module.
_RANDOM_MODULE_FNS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "gauss",
    "normalvariate",
    "expovariate",
    "betavariate",
    "random_sample",
    "seed",
    "getrandbits",
}
_OTHER_ENTROPY = {
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}
_SORTISH = {"sorted", "min", "max"}
#: The one module allowed to write ``.now`` (DT006).
_KERNEL_MODULE = "repro.sim.kernel"


def _np_random_chain(name: str) -> bool:
    """``np.random.<draw>`` / ``numpy.random.<draw>`` global-state use."""
    seeded = (
        "default_rng",
        "Generator",
        "SeedSequence",
        # explicitly-seeded bit generators
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    )
    for prefix in ("np.random.", "numpy.random."):
        if name.startswith(prefix):
            tail = name[len(prefix):]
            return tail not in seeded
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, module: Module, findings: list[Finding]) -> None:
        self.module = module
        self.findings = findings
        self.symbol_stack: list[str] = []
        #: locals bound to set expressions, per function scope
        self.set_locals: list[set[str]] = [set()]

    # -- bookkeeping ---------------------------------------------------------
    @property
    def symbol(self) -> str:
        return ".".join(self.symbol_stack)

    def add(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.module.path,
                line=getattr(node, "lineno", 1),
                symbol=self.symbol,
                message=message,
            )
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.symbol_stack.append(node.name)
        self.set_locals.append(set())
        self.generic_visit(node)
        self.set_locals.pop()
        self.symbol_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.symbol_stack.append(node.name)
        self.generic_visit(node)
        self.symbol_stack.pop()

    # -- EX001 ---------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        bad = None
        if node.type is None:
            bad = "bare except"
        else:
            name = attr_chain(node.type)
            if name in ("Exception", "BaseException"):
                bad = f"except {name}"
        if bad is not None:
            self.add(
                "EX001",
                node,
                f"{bad}: catch the specific expected types (the "
                "ReproError hierarchy exists for this; broad catches "
                "also swallow PowerFailure)",
            )
        self.generic_visit(node)

    # -- set tracking for DT005 ---------------------------------------------
    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = attr_chain(node.func)
            if name == "set" or name == "frozenset":
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.set_locals[-1]
        return False

    # -- DT006: the simulated clock is written by the kernel only ------------
    def _check_clock_store(self, target: ast.AST) -> None:
        if self.module.name == _KERNEL_MODULE:
            return
        for sub in ast.walk(target):
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr == "now"
                and isinstance(sub.ctx, ast.Store)
            ):
                self.add(
                    "DT006",
                    sub,
                    "store to .now: only the kernel (repro.sim.kernel) "
                    "moves the simulated clock",
                )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_clock_store(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_clock_store(node.target)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_clock_store(target)
            if isinstance(target, ast.Name):
                if self._is_set_expr(node.value):
                    self.set_locals[-1].add(target.id)
                else:
                    self.set_locals[-1].discard(target.id)
        self.generic_visit(node)

    def _check_iteration(self, iter_node: ast.AST) -> None:
        if self._is_set_expr(iter_node):
            self.add(
                "DT005",
                iter_node,
                "iterating an unordered set: wrap in sorted(...) so "
                "downstream scheduling/serialization order is stable",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = attr_chain(node.func)
        if name is not None:
            if name in _WALL_CLOCK:
                self.add(
                    "DT001",
                    node,
                    f"{name}() reads the wall clock; simulated time is "
                    "env.now",
                )
            elif name in _CALENDAR:
                self.add(
                    "DT002",
                    node,
                    f"{name}() is nondeterministic across runs",
                )
            elif name in _OTHER_ENTROPY or name.startswith("secrets."):
                self.add(
                    "DT003",
                    node,
                    f"{name}() draws OS entropy; use a seeded "
                    "RngRegistry stream",
                )
            elif name.startswith("random.") and name.split(".", 1)[1] in (
                _RANDOM_MODULE_FNS
            ):
                self.add(
                    "DT003",
                    node,
                    f"{name}() uses the global random state; use a "
                    "seeded RngRegistry stream",
                )
            elif _np_random_chain(name):
                self.add(
                    "DT003",
                    node,
                    f"{name}() uses numpy's global RNG; use a seeded "
                    "RngRegistry stream (np.random.default_rng)",
                )
            if name in _SORTISH or name.endswith(".sort"):
                self._check_id_key(node)
            if name == "sorted" and node.args:
                # sorted(set) is the sanctioned way to iterate one
                pass
        self.generic_visit(node)

    def _check_id_key(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            target = kw.value
            if isinstance(target, ast.Name) and target.id == "id":
                self.add(
                    "DT004",
                    node,
                    "ordering by id(): CPython addresses vary run to "
                    "run; key on a stable field",
                )
            elif isinstance(target, ast.Lambda):
                for sub in ast.walk(target.body):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id == "id"
                    ):
                        self.add(
                            "DT004",
                            node,
                            "ordering by id(): CPython addresses vary "
                            "run to run; key on a stable field",
                        )
                        break

    # -- DT004: id() as mapping key -------------------------------------------
    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (
            isinstance(node.ctx, ast.Store)
            and isinstance(node.slice, ast.Call)
            and isinstance(node.slice.func, ast.Name)
            and node.slice.func.id == "id"
        ):
            self.add(
                "DT004",
                node,
                "mapping keyed by id(): iteration order then depends "
                "on allocation addresses",
            )
        self.generic_visit(node)


def check_determinism(modules: list[Module]) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        _Visitor(module, findings).visit(module.tree)
    return findings
