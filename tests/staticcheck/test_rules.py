"""Each checker rule fires on its seeded fixture — and only there.

The fixtures under ``fixtures/`` are parsed by the analyzers, never
imported; every ``ok_*`` function pins the corresponding
no-false-positive behaviour.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigError
from repro.staticcheck import RULES, run_staticcheck
from repro.staticcheck.suppress import load_baseline

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")


def fixture_findings(rules: set[str]):
    rep = run_staticcheck(
        FIXTURES, baseline=None, rules=rules, rel_to=FIXTURES
    )
    return rep.findings


def by_rule(findings, rule: str):
    return [f for f in findings if f.rule == rule]


def symbols(findings):
    return {f.symbol for f in findings}


def test_rule_ids_are_stable():
    assert set(RULES) == {
        "PO001",
        "PO002",
        "YP001",
        "DT001",
        "DT002",
        "DT003",
        "DT004",
        "DT005",
        "DT006",
        "EX001",
        "RG001",
        "RG002",
        "RG003",
        "RG004",
        "RG005",
        "RG006",
    }


def test_persist_ordering_rules():
    findings = fixture_findings({"PO"})
    assert symbols(by_rule(findings, "PO001")) == {
        "BadStore.publish_unpersisted",
        "BadStore.publish_on_one_path",
        "BadStore.atomic_store_unpersisted",
    }
    assert symbols(by_rule(findings, "PO002")) == {"BadStore._handle_put"}
    clean = {
        "BadStore.ok_persist_then_publish",
        "BadStore._handle_ok_persists",
        "BadStore._handle_error_reply",
        "BadStore.ok_file_write",
    }
    assert not (symbols(findings) & clean)


def test_yield_race_rule():
    findings = fixture_findings({"YP"})
    assert symbols(by_rule(findings, "YP001")) == {
        "racy_alloc",
        "racy_alias",
        "racy_augassign",
    }
    assert not {s for s in symbols(findings) if s.startswith("ok_")}


def test_determinism_rules():
    findings = fixture_findings({"DT", "EX"})
    assert symbols(by_rule(findings, "DT001")) == {"wall_clock_latency"}
    assert symbols(by_rule(findings, "DT002")) == {"calendar_stamp"}
    dt3 = by_rule(findings, "DT003")
    assert symbols(dt3) == {"unseeded_draws"} and len(dt3) == 3
    dt4 = by_rule(findings, "DT004")
    assert symbols(dt4) == {"id_ordered"} and len(dt4) == 2
    dt5 = by_rule(findings, "DT005")
    assert symbols(dt5) == {"set_iteration"} and len(dt5) == 2
    dt6 = by_rule(findings, "DT006")
    assert symbols(dt6) == {"clock_writes"} and len(dt6) == 3
    assert symbols(by_rule(findings, "EX001")) == {
        "swallow_everything",
        "swallow_bare",
    }
    assert "ok_seeded_and_sorted" not in symbols(findings)
    assert "ok_clock_reads" not in symbols(findings)


def test_registry_rules():
    findings = fixture_findings({"RG"})
    assert [f for f in by_rule(findings, "RG001") if "nvm.presist" in f.message]
    assert [f for f in by_rule(findings, "RG002") if "zz.cleaner." in f.message]
    assert [f for f in by_rule(findings, "RG004") if "qp.writee" in f.message]
    rg5 = by_rule(findings, "RG005")
    assert [f for f in rg5 if "missing-plan" in f.message]
    assert [f for f in rg5 if "actual-name" in f.message]
    assert [
        f for f in by_rule(findings, "RG006") if "no_such_metric_key" in f.message
    ]
    # reverse direction: sites the fixtures don't fire are reported dead
    assert [f for f in by_rule(findings, "RG003") if "'qp.write'" in f.message]
    # the one correctly-spelled fire() draws no finding
    assert not [f for f in findings if "'nvm.persist'" in f.message]


def test_findings_are_deterministic_and_sorted():
    a = fixture_findings({"PO", "YP", "DT", "EX"})
    b = fixture_findings({"PO", "YP", "DT", "EX"})
    assert [f.as_dict() for f in a] == [f.as_dict() for f in b]
    keys = [(f.path, f.line, f.rule, f.message) for f in a]
    assert keys == sorted(keys)


def test_suppression_matching_and_unused(tmp_path):
    base = tmp_path / "staticcheck.toml"
    base.write_text(
        '[[suppress]]\nrule = "PO002"\n'
        'path = "bad_persist.py"\n'
        'reason = "fixture: ack without persist is the seeded bug"\n'
        '[[suppress]]\nrule = "YP001"\n'
        'path = "no_such_file.py"\n'
        'reason = "stale entry that matches nothing"\n'
    )
    rep = run_staticcheck(
        FIXTURES, baseline=str(base), rules={"PO"}, rel_to=FIXTURES
    )
    assert not [f for f in rep.findings if f.rule == "PO002"]
    assert [f for f in rep.suppressed if f.rule == "PO002"]
    assert [s.rule for s in rep.unused_suppressions] == ["YP001"]


def test_baseline_requires_rule_and_reason(tmp_path):
    bad = tmp_path / "staticcheck.toml"
    bad.write_text('[[suppress]]\nrule = "PO001"\n')
    with pytest.raises(ConfigError):
        load_baseline(str(bad))


def test_baseline_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "staticcheck.toml"
    bad.write_text(
        '[[suppress]]\nrule = "PO001"\nreason = "x"\nfille = "typo"\n'
    )
    with pytest.raises(ConfigError):
        load_baseline(str(bad))
