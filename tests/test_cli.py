import argparse
import csv
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ldic
from helpers import reference_csv
from ldic import cli, output
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
from ldic.cli import build_parser, json_text, main
from ldic.output import parse_region_document
from ldic.polytope import RatePolytope

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
        ["sweep", "--n11", "1", "--n22", "1", "--n12", "1", "--n21", "1", "--fb11", "1"],
        ["sweep", "--n11", "1", "--n22", "1", "--n12", "1", "--n21", "1", "--fb22", "0"],
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
    for command in ("region", "metrics", "sweep", "simulate"):
        code, out, err = run_cli(
            capsys, command, "--n11", "10001", "--n22", "0", "--n12", "0", "--n21", "0",
        )
        assert (code, out) == (2, ""), command
        assert err.startswith("error:"), command


def test_subcommand_usage_lines(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one usage line each
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    channel = "[-h] --n11 N11 --n22 N22 --n12 N12 --n21 N21"
    feedback = "[--fb11 FB11] [--fb22 FB22]"
    assert {name: sub.format_usage() for name, sub in commands.choices.items()} == {
        "region": f"usage: ldic region {channel} {feedback} [--format {{json,csv}}]\n",
        "metrics": f"usage: ldic metrics {channel} {feedback}\n",
        "sweep": f"usage: ldic sweep {channel} [--format {{json,csv}}]\n",
        "simulate": f"usage: ldic simulate {channel} {feedback} [--delay DELAY] "
                    "[--block-length BLOCK_LENGTH] [--scheme {echo,point-to-point}] "
                    "[--seed SEED] [--trace]\n",
    }


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


def _rebuilt(command, text):
    """The document a subcommand's JSON text parses back to, built again by its builder."""
    if command == "region":
        params, bounds, vertices = parse_region_document(text)
        poly = RatePolytope.from_bounds(bounds)
        assert poly.vertices == vertices
        return output.region_document(params, poly)
    if command == "sweep":
        params, cells = output.parse_surface_document(text)
        surface = ldic.sweep(params)
        assert dict(surface.cells) == cells
        return output.surface_document(params, surface)
    if command == "metrics":
        return output.metrics_document(*output.parse_metrics_document(text))
    include_trace = "trace" in json.loads(text)["session"]
    return output.session_document(*output.parse_session_document(text),
                                   include_trace=include_trace)


def test_readme_json_documents_parse_back_to_the_same_bytes(capsys):
    # each command as JSON: a --format flag is the last one in the README
    commands = [argv[:argv.index("--format")] if "--format" in argv else argv
                for argv in readme_commands()]
    assert sorted({argv[0] for argv in commands}) == ["metrics", "region", "simulate", "sweep"]
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert json_text(_rebuilt(argv[0], out)) + "\n" == out, argv


def _formats(argv):
    """argv, and for a subcommand that has --format, argv in the other format too."""
    if argv[0] not in ("region", "sweep"):
        return [argv]
    if "--format" in argv:
        return [argv, argv[:argv.index("--format")]]
    return [argv, [*argv, "--format", "csv"]]


@pytest.mark.parametrize("argv", [
    *(variant for argv in readme_commands() for variant in _formats(argv)),
    ["sweep", "--n11", "60", "--n22", "58", "--n12", "30", "--n21", "61"],
    ["simulate", "--n11", "9", "--n22", "8", "--n12", "5", "--n21", "7",
     "--fb11", "9", "--fb22", "4", "--block-length", "40", "--seed", "3", "--trace"],
], ids=shlex.join)
def test_output_bytes_match_json_dumps_and_dict_writer(capsys, monkeypatch, argv):
    written = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "json_text", lambda document: json.dumps(document, indent=2))
    monkeypatch.setattr(output, "_csv", reference_csv)
    assert run_cli(capsys, *argv) == written


_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfffé😀'),
                max_size=8)
_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-2**300, 2**300)
           | _TEXT)
_TREES = st.recursive(_LEAVES, lambda children: st.lists(children, max_size=4)
                      | st.dictionaries(_TEXT, children, max_size=4), max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_TREES)
def test_json_text_is_json_dumps_with_indent_2(document):
    assert json_text(document) == json.dumps(document, indent=2)


@pytest.mark.parametrize("document", [
    1.5, float("nan"), (1, 2), {1}, frozenset(), b"01", {1: "a"}, {None: 1}, {True: 1},
    [0, {"a": [1, 2.0]}], {"a": {"b": (1,)}}, {"a": [{(1, 2): 3}]},
], ids=repr)
def test_json_text_refuses_other_types(document):
    with pytest.raises(TypeError):
        json_text(document)


# Requests of every kind, a usage error among them, answered in one process.
_MIX = [
    ["region", *FIG_FLAGS, "--fb11", "3"],
    ["sweep", "--n11", "4", "--n22", "3", "--n12", "2", "--n21", "1"],
    ["sweep", "--n11", "4", "--n22", "3", "--n12", "2"],  # --n21 missing
    ["metrics", *FIG_FLAGS, "--fb11", "9", "--fb22", "4"],
    ["simulate", "--n11", "3", "--n22", "3", "--n12", "2", "--n21", "1",
     "--fb11", "3", "--fb22", "2", "--scheme", "echo", "--block-length", "4", "--trace"],
    ["region", *FIG_FLAGS, "--format", "csv"],
]


def test_one_process_answers_a_mix_as_fresh_processes_do(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one usage line, in and out of process
    env = {**os.environ, "PYTHONPATH": str(Path(ldic.__file__).parents[1])}
    answers = []
    for argv in _MIX:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        answers.append((code, captured.out, captured.err))
    for argv, answer in zip(_MIX, answers):
        fresh = subprocess.run([sys.executable, "-m", "ldic.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert answer == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    code, out, err = answers[2]
    assert (code, out) == (2, "")
    assert err.startswith("usage: ldic sweep [-h] --n11 N11 --n22 N22 --n12 N12 --n21 N21 "
                          "[--format {json,csv}]\n")
    assert [code for code, _, _ in answers] == [0, 0, 2, 0, 0, 0]
