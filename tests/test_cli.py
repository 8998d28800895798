"""Command-line interface."""

import json

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


@pytest.mark.parametrize(
    "argv, field",
    [
        (["chaos", "--keys", "0"], "key_count"),
        (["chaos", "--clients", "0"], "n_clients"),
        (["run", "--store", "efactory", "--clients", "0"], "n_clients"),
        (["crash", "--store", "efactory", "--evict", "1.5"], "evict_probability"),
    ],
)
def test_a_bad_shape_is_a_one_line_error(capsys, argv, field):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro {argv[0]}: error: {field} ")
    assert captured.err.count("\n") == 1
