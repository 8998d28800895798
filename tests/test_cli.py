"""Command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "eFactory" in out and "CA w/o persistence" in out
    assert "durable PUT" in out


def test_run_single_store(capsys, tmp_path):
    path = tmp_path / "run.json"
    rc = main(
        [
            "run",
            "--store",
            "ca",
            "--workload",
            "YCSB-A",
            "--value-size",
            "128",
            "--key-count",
            "64",
            "--clients",
            "2",
            "--ops",
            "60",
            "--seeds",
            "1",
            "2",
            "--json",
            str(path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    payload = json.loads(path.read_text())
    assert payload["store"] == "ca"
    assert payload["throughput_mops"] > 0
    assert payload["errors"] == 0


def test_run_histogram_flag(capsys):
    rc = main(
        [
            "run", "--store", "ca", "--workload", "YCSB-C",
            "--value-size", "64", "--key-count", "32",
            "--clients", "1", "--ops", "40", "--histogram",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "latency distribution" in out and "#" in out


def test_fig1(capsys, tmp_path):
    path = tmp_path / "fig1.json"
    rc = main(["fig", "1", "--sizes", "64", "--ops", "60", "--json", str(path)])
    assert rc == 0
    assert "Figure 1" in capsys.readouterr().out
    payload = json.loads(path.read_text())
    assert "ca" in payload and "64" in payload["ca"]


def test_fig9_with_workload(capsys):
    rc = main(
        ["fig", "9", "--workload", "update-only", "--sizes", "64", "--ops", "50"]
    )
    assert rc == 0
    assert "update-only" in capsys.readouterr().out


def test_crash(capsys, tmp_path):
    path = tmp_path / "crash.json"
    rc = main(
        ["crash", "--store", "efactory", "--seeds", "7", "--json", str(path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "crash audit" in out
    payload = json.loads(path.read_text())
    assert payload[0]["violations"] == []


def test_chaos(capsys, tmp_path):
    path = tmp_path / "chaos.json"
    rc = main(
        [
            "chaos", "--store", "efactory", "--plan", "qp-flap",
            "--seeds", "7", "--ops", "30", "--strict",
            "--json", str(path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "chaos audit" in out and "ok" in out
    payload = json.loads(path.read_text())
    assert payload[0]["plan"] == "qp-flap"
    assert payload[0]["violations"] == []


@pytest.mark.parametrize("store, landed", [("ca", False), ("rpc", True)])
def test_chaos_media_plan_says_when_nothing_landed(capsys, store, landed):
    """CA writes nothing back, so a media plan has nothing to strike: the
    report says so instead of showing a bare row of zeros."""
    argv = ["chaos", "--store", store, "--plan", "bitrot-heavy",
            "--seeds", "7", "--clients", "2", "--ops", "60"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert ("no media fault landed in bitrot-heavy seed 7" in out) is not landed


def test_chaos_unknown_plan_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["chaos", "--store", "efactory", "--plan", "bogus"]
        )


def test_unknown_store_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--store", "bogus"])


def test_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_crashmatrix(capsys, tmp_path):
    path = tmp_path / "matrix.json"
    rc = main(
        [
            "crashmatrix", "--store", "efactory", "--max-per-site", "1",
            "--recovery-points", "1", "--sites", "nvm.persist",
            "--no-replay", "--strict", "--json", str(path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "crash-point matrix" in out
    assert "0 violation(s)" in out
    payload = json.loads(path.read_text())
    assert payload["violations"] == []
    assert payload["non_idempotent"] == []
    assert payload["total_points"] >= 1


@pytest.mark.parametrize("site", ["cluster.node7", "recovery.step"])
def test_crashmatrix_named_site_never_visited(capsys, site):
    """A named site the workload never reaches gets a 0-point row and a
    one-line note naming it (and only it); --strict then fails."""
    argv = [
        "crashmatrix", "--store", "efactory", "--max-per-site", "1",
        "--recovery-points", "1", "--sites", "nvm.persist", site, "--no-replay",
    ]
    assert main(argv) == 0
    lenient = capsys.readouterr().out
    assert main(argv + ["--strict"]) == 1
    out = capsys.readouterr().out
    assert out == lenient
    rows = [line.split() for line in out.splitlines()]
    assert ["workload", site, "0", "0", "0", "0", "0"] in rows
    assert any(r[:2] == ["workload", "nvm.persist"] and r[2] != "0" for r in rows)
    notes = [line for line in out.splitlines() if "never visited" in line]
    assert notes == [f"never visited by the workload, so never crashed at: {site}"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["chaos", "--keys", "0"], "key_count"),
        (["chaos", "--clients", "0"], "n_clients"),
        (["run", "--store", "efactory", "--clients", "0"], "n_clients"),
        (["crash", "--store", "efactory", "--evict", "1.5"], "evict_probability"),
        (["crashmatrix", "--max-per-site", "0"], "max_per_site"),
        (["crashmatrix", "--recovery-points", "-1"], "recovery_points"),
        (["crashmatrix", "--sites", "nope.site", "--strict"], "sites"),
        (["run", "--store", "efactory", "--value-size", "8"], "value_len"),
        (["fig", "9", "--sizes", "0"], "value_len"),
        (["run", "--store", "efactory", "--seeds", "-1"], "seed"),
        (["crash", "--store", "efactory", "--seeds", "-1"], "seed"),
        (["chaos", "--seeds", "-1"], "seed"),
        (["crashmatrix", "--seed", "-1"], "seed"),
        (["loadgen", "--seed", "-1"], "seed"),
        (["chaos", "--plan", "qp-flap", "--nodes", "-2", "--strict"], "nodes"),
        (["chaos", "--plan", "qp-flap", "--replication", "-1"], "replication"),
        (["chaos", "--store", "rpc", "--nodes", "2", "--plan", "qp-flap"], "store"),
        (["run", "--store", "ca", "--ops", "0", "--json", os.devnull], "ops"),
        (["fig", "1", "--ops", "0"], "ops"),
        (["chaos", "--ops", "0", "--strict"], "ops"),
        (["chaos", "--store", "saw", "--plan", "slow-nvm", "--parity"], "parity"),
    ],
)
def test_a_bad_shape_is_a_one_line_error(capsys, argv, field):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro {argv[0]}: error: {field} ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("watermark", [4, 0])
def test_loadgen(capsys, tmp_path, watermark):
    """A tiny two-tenant open-loop cell: the admission line and the
    report's ``admission`` appear exactly while a watermark is armed."""
    path = tmp_path / "load.json"
    argv = [
        "loadgen", "--store", "efactory", "--clients", "8", "--ops", "5",
        "--tenants", "2", "--admission", str(watermark), "--json", str(path),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    report = json.loads(path.read_text())
    assert "Open-loop load: 8 clients on efactory" in out
    assert [t["name"] for t in report["tenants"]] == ["YCSB-B-t0", "YCSB-B-t1"]
    if watermark:
        admission = report["admission"]
        assert list(admission) == ["watermark", "admitted", "shed", "peak_inflight", "inflight"]
        assert admission["watermark"] == 4 and admission["admitted"] > 0
        assert (
            f"admission: watermark 4  admitted {admission['admitted']}"
            f"  shed {admission['shed']}  peak inflight {admission['peak_inflight']}"
        ) in out
    else:
        assert "admission:" not in out
        assert report["admission"] is None
