import csv
import io
import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from ldic import (
    SCHEMES,
    ChannelParams,
    build_bounds,
    capacity_region,
    compute_metrics,
    derive_config,
    draw_messages,
    run_scheme,
)
from ldic.cli import main
from ldic.output import parse_region_document

FIG_FLAGS = ["--n11", "10", "--n22", "10", "--n12", "3", "--n21", "8"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_region_json_document(capsys):
    code, out, err = run_cli(capsys, "region", *FIG_FLAGS, "--fb11", "0", "--fb22", "0")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["params"]["fwd11"] == 10 and doc["params"]["inr21"] == 8
    vertices = [(row["r1"], row["r2"]) for row in doc["region"]["vertices"]]
    assert vertices == [
        ("10/1", "0/1"), ("9/1", "2/1"), ("2/1", "9/1"), ("0/1", "10/1"), ("0/1", "0/1"),
    ]


def test_region_round_trips_exactly(capsys):
    code, out, _ = run_cli(
        capsys, "region", "--n11", "20", "--n22", "15", "--n12", "12",
        "--n21", "13", "--fb11", "15", "--fb22", "14",
    )
    assert code == 0
    params, bounds, vertices = parse_region_document(out)
    assert params == ChannelParams(20, 15, 12, 13, 15, 14)
    assert bounds == build_bounds(params)
    assert vertices == capacity_region(params).vertices


def test_region_origin_only(capsys):
    code, out, _ = run_cli(
        capsys, "region", "--n11", "0", "--n22", "0", "--n12", "0", "--n21", "0",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["region"]["vertices"] == [
        {"r1": "0/1", "r1_decimal": "0.000000", "r2": "0/1", "r2_decimal": "0.000000"}
    ]


def test_region_csv_matches_json(capsys):
    argv = ["region", *FIG_FLAGS, "--fb11", "9", "--fb22", "4"]
    code_json, out_json, _ = run_cli(capsys, *argv)
    code_csv, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code_json == code_csv == 0
    doc = json.loads(out_json)
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert out_csv.endswith("\n")
    csv_bounds = [r for r in rows if r["kind"] == "bound"]
    csv_vertices = [r for r in rows if r["kind"] == "vertex"]
    assert [
        (int(r["r1_coeff"]), int(r["r2_coeff"]), int(r["rhs"]), r["source"] or None)
        for r in csv_bounds
    ] == [
        (b["r1_coeff"], b["r2_coeff"], b["rhs"], b["source"])
        for b in doc["region"]["bounds"]
    ]
    assert [(r["r1"], r["r2"]) for r in csv_vertices] == [
        (v["r1"], v["r2"]) for v in doc["region"]["vertices"]
    ]


def test_metrics_document(capsys):
    code, out, _ = run_cli(capsys, "metrics", *FIG_FLAGS, "--fb11", "9", "--fb22", "4")
    assert code == 0
    payload = json.loads(out)["metrics"]
    assert payload["delta1"] == "1/1" and payload["delta1_decimal"] == "1.000000"
    assert payload["delta2"] == "1/1"
    assert payload["sigma"] == "1/1"
    assert payload["feedback_useless"] is False
    assert payload["thresholds"] == [
        {"link": 1, "threshold": 8, "saturation": 10},
        {"link": 2, "threshold": 3, "saturation": 10},
    ]


def test_metrics_on_a_useless_channel(capsys):
    code, out, _ = run_cli(
        capsys, "metrics", "--n11", "10", "--n22", "9", "--n12", "2",
        "--n21", "15", "--fb11", "10", "--fb22", "9",
    )
    payload = json.loads(out)["metrics"]
    assert (payload["delta1"], payload["delta2"], payload["sigma"]) == ("0/1", "0/1", "0/1")
    assert payload["feedback_useless"] is True


def test_metrics_near_the_exponent_cap(capsys):
    code, out, err = run_cli(
        capsys, "metrics", "--n11", "10000", "--n22", "9000", "--n12", "10000",
        "--n21", "9500", "--fb22", "7000",
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    params = ChannelParams(**doc["params"])
    assert params == ChannelParams(10000, 9000, 10000, 9500, 0, 7000)
    payload = doc["metrics"]
    expected = compute_metrics(params)
    assert [Fraction(payload[k]) for k in ("delta1", "delta2", "sigma")] == [
        expected.delta1, expected.delta2, expected.sigma,
    ]
    assert payload["thresholds"] == [
        {"link": 1, "threshold": 9000, "saturation": 10000},
        {"link": 2, "threshold": None, "saturation": 9500},
    ]
    assert payload["feedback_useless"] is False


def test_sweep_rows_are_ordered_and_complete(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n11", "4", "--n22", "3", "--n12", "2", "--n21", "1",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    keys = [(int(r["fb11"]), int(r["fb22"])) for r in rows]
    assert keys == [(i, j) for i in range(5) for j in range(4)]
    assert rows[0]["delta1"] == "0/1"
    assert set(rows[0]) == {
        "fb11", "fb22", "delta1", "delta1_decimal",
        "delta2", "delta2_decimal", "sigma", "sigma_decimal",
    }


def test_sweep_json_and_csv_agree(capsys):
    argv = ["sweep", "--n11", "4", "--n22", "3", "--n12", "2", "--n21", "1"]
    _, out_json, _ = run_cli(capsys, *argv)
    _, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    cells = json.loads(out_json)["surface"]["cells"]
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(cells) == len(rows)
    for cell, row in zip(cells, rows):
        assert cell["fb11"] == int(row["fb11"]) and cell["fb22"] == int(row["fb22"])
        for field in ("delta1", "delta2", "sigma"):
            assert cell[field] == row[field]
            assert Fraction(cell[field]) == Fraction(row[field])


def test_simulate_clean_pipes(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--n11", "4", "--n22", "3", "--n12", "0", "--n21", "0",
        "--block-length", "3", "--seed", "5",
    )
    assert code == 0
    session = json.loads(out)["session"]
    assert session["p1"] == "0/1" and session["p2"] == "0/1"
    assert session["rate1"] == "4/1" and session["rate2"] == "3/1"
    assert session["message_lengths"] == [12, 9]
    assert "trace" not in session


def test_simulate_trace_and_determinism(capsys):
    argv = [
        "simulate", "--n11", "3", "--n22", "3", "--n12", "2", "--n21", "1",
        "--fb11", "3", "--fb22", "2", "--scheme", "echo",
        "--block-length", "4", "--seed", "12", "--trace",
    ]
    code1, first, _ = run_cli(capsys, *argv)
    code2, second, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert first == second
    session = json.loads(first)["session"]
    assert len(session["trace"]) == 4
    for step in session["trace"]:
        for key in ("x1", "x2", "y1", "y2", "fb1", "fb2"):
            assert len(step[key]) == session["q"]
            assert set(step[key]) <= {"0", "1"}
    assert len(session["messages"][0]) == 3


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_simulate_document_carries_the_session_text(capsys, scheme, trace):
    params = ChannelParams(6, 5, 4, 3, 5, 4)
    argv = [
        "simulate", "--n11", "6", "--n22", "5", "--n12", "4", "--n21", "3",
        "--fb11", "5", "--fb22", "4", "--scheme", scheme,
        "--block-length", "7", "--seed", "21", *(["--trace"] if trace else []),
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    session = json.loads(out)["session"]
    cfg = derive_config(params, delay=1, block_length=7)
    lengths = SCHEMES[scheme].message_lengths(cfg)
    result = run_scheme(cfg, SCHEMES[scheme], draw_messages(lengths, 21))
    assert session["messages"] == list(result.messages)
    assert session["estimates"] == list(result.estimates)
    assert session["message_lengths"] == list(lengths)
    assert [len(m) for m in session["messages"]] == list(lengths)
    assert [len(e) for e in session["estimates"]] == list(lengths)
    for user, (sent, estimate) in enumerate(zip(session["messages"], session["estimates"]), 1):
        wrong = sum(a != b for a, b in zip(sent, estimate))
        assert Fraction(session[f"p{user}"]) == Fraction(wrong, len(sent))
    assert session["p1"] != "0/1" or session["p2"] != "0/1"


def test_usage_errors_exit_with_two(capsys):
    for argv in (
        ["region", "--n11", "-1", "--n22", "0", "--n12", "0", "--n21", "0"],
        ["region", "--n11", "x", "--n22", "0", "--n12", "0", "--n21", "0"],
        ["region", "--n11", "1", "--n22", "0", "--n12", "0"],  # missing flag
        ["simulate", "--n11", "1", "--n22", "1", "--n12", "0", "--n21", "0",
         "--scheme", "unknown"],
        ["bogus"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()


def test_domain_errors_exit_with_two(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--n11", "0", "--n22", "0", "--n12", "0", "--n21", "0",
    )
    assert code == 2 and out == "" and "signal space" in err
    code, _, err = run_cli(
        capsys, "region", "--n11", "10001", "--n22", "0", "--n12", "0", "--n21", "0",
    )
    assert code == 2 and err.startswith("error:")


def readme_commands():
    """Each `ldic ...` command of the README's "Command line" block, as argv."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("ldic ")]


def test_readme_command_examples_exit_zero(capsys):
    commands = readme_commands()
    assert commands
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out, argv
