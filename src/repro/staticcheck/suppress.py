"""Baseline/suppression file (``staticcheck.toml``) handling.

A suppression is deliberate, reviewed acceptance of one finding class —
each entry carries a mandatory one-line ``reason`` so the justification
lives next to the waiver, not in a commit message::

    [[suppress]]
    rule = "DT001"
    path = "src/repro/staticcheck/runner.py"
    reason = "elapsed_s is reporting-only; no analysis decision reads it"

Match fields: ``rule`` (required), ``path`` (exact repo-relative path,
or a prefix ending in ``/``), optional ``symbol`` (exact dotted
function) and ``contains`` (substring of the message). An entry that
matched nothing in a run is reported — stale waivers hide regressions,
so the runner surfaces them (and ``--strict-baseline`` makes them
errors).
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.staticcheck.model import Finding

__all__ = ["Suppression", "Baseline", "load_baseline"]


@dataclass
class Suppression:
    rule: str
    reason: str
    path: str = ""
    symbol: str = ""
    contains: str = ""
    hits: int = 0

    def matches(self, finding: Finding) -> bool:
        if self.rule != finding.rule:
            return False
        if self.path:
            if self.path.endswith("/"):
                if not finding.path.startswith(self.path):
                    return False
            elif finding.path != self.path:
                return False
        if self.symbol and finding.symbol != self.symbol:
            return False
        if self.contains and self.contains not in finding.message:
            return False
        return True


@dataclass
class Baseline:
    suppressions: list[Suppression] = field(default_factory=list)
    source: str = ""

    def filter(
        self, findings: list[Finding]
    ) -> tuple[list[Finding], list[Finding]]:
        """(unsuppressed, suppressed) partition; counts hits."""
        live: list[Finding] = []
        quiet: list[Finding] = []
        for finding in findings:
            hit = next(
                (s for s in self.suppressions if s.matches(finding)), None
            )
            if hit is None:
                live.append(finding)
            else:
                hit.hits += 1
                quiet.append(finding)
        return live, quiet

    def unused(self) -> list[Suppression]:
        return [s for s in self.suppressions if s.hits == 0]


def load_baseline(path: str) -> Baseline:
    with open(path, "rb") as fh:
        data = tomllib.load(fh)
    entries = data.get("suppress", [])
    if not isinstance(entries, list):
        raise ConfigError(f"{path}: [[suppress]] must be an array of tables")
    suppressions: list[Suppression] = []
    for i, entry in enumerate(entries):
        rule = entry.get("rule")
        reason = entry.get("reason")
        if not rule or not reason:
            raise ConfigError(
                f"{path}: suppress[{i}] needs both 'rule' and a one-line "
                "'reason' justifying the waiver"
            )
        unknown = set(entry) - {"rule", "reason", "path", "symbol", "contains"}
        if unknown:
            raise ConfigError(
                f"{path}: suppress[{i}] has unknown keys {sorted(unknown)}"
            )
        suppressions.append(
            Suppression(
                rule=str(rule),
                reason=str(reason),
                path=str(entry.get("path", "")),
                symbol=str(entry.get("symbol", "")),
                contains=str(entry.get("contains", "")),
            )
        )
    return Baseline(suppressions=suppressions, source=path)
