"""Golden-output oracle for the CLI's simulated replays.

Each case runs one subcommand in-process, inside an empty scratch
directory with relative artifact paths (so every "wrote ..." line is
stable), and hashes stdout plus every file the command wrote.  The
hashes must equal the ones committed in ``tests/cli_golden.json``:
byte-identical output is the contract any refactor of ``repro.cli``
keeps, and a fixed digest also proves run-to-run determinism.  The same
file pins each subcommand's parsed defaults and option table, so a
reshuffle of ``build_parser`` cannot silently change an option.

The arguments are the ones ``tools/ci.sh`` smokes, plus a few variants
that reach branches the CI arguments skip.  Re-record (only when an
output is meant to change) from the repository root with::

    PYTHONPATH=src python -m tests.test_cli_golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from repro.cli import build_parser, main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

CASES: dict[str, list[str]] = {
    "metrics": ["metrics", "--requests", "60", "--rate", "120",
                "--seed", "3"],
    "autoscale": ["autoscale", "--duration", "12", "--step-start", "2",
                  "--step-end", "6"],
    "autoscale-ceiling": ["autoscale", "--duration", "12",
                          "--step-start", "2", "--step-end", "6",
                          "--step-rate", "2000", "--base-rate", "150",
                          "--seed", "5", "--max-replicas", "2"],
    "trace": ["trace", "--duration", "6", "--step-start", "1",
              "--step-end", "3", "--step-rate", "700", "--base-rate",
              "60", "--seed", "2", "--out", "trace.json"],
    "cache": ["cache", "--frames", "80", "--seed", "1",
              "--scene-change-rates", "0.0,0.05,0.5",
              "--out", "cache.json"],
    "network": ["network", "--frames", "15", "--seed", "1",
                "--broker-messages", "60", "--outage-start", "5",
                "--outage-seconds", "3", "--out", "network.json",
                "--trace-out", "network.trace.json"],
    "network-no-outage": ["network", "--frames", "12", "--seed", "2",
                          "--endpoints", "2", "--broker-messages", "40",
                          "--loss", "0.05", "--jitter-ms", "4",
                          "--out", "network.json",
                          "--trace-out", "network.trace.json"],
    "profile": ["profile", "--duration", "4", "--fluid-duration", "40",
                "--burst-rate", "900", "--seed", "1",
                "--out", "profile.json",
                "--speedscope", "profile.speedscope.json",
                "--folded-out", "profile.folded"],
    "faas": ["faas", "--duration", "3600", "--seed", "1",
             "--out", "faas.json"],
    "sweep": ["sweep", "--replications", "4", "--duration", "600",
              "--seed", "7", "--jobs", "1", "--out", "sweep.json",
              "--metrics-out", "sweep.prom"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str]) -> dict:
    """Run ``argv`` in the current (empty) directory; hash its outputs."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    files = {path.name: _sha256(path.read_bytes())
             for path in sorted(pathlib.Path.cwd().iterdir())}
    return {"stdout": _sha256(stdout.getvalue().encode()),
            "files": files}


def _subparsers() -> dict:
    parser = build_parser()
    [group] = [action for action in parser._actions
               if action.dest == "command"]
    return group.choices


def parser_spec(command: str) -> dict:
    """Parsed defaults and the option table of one subcommand."""
    options = []
    required = []
    for action in _subparsers()[command]._actions:
        if action.dest == "help":
            continue
        options.append({
            "dest": action.dest,
            "flags": list(action.option_strings),
            "action": type(action).__name__,
            "type": getattr(action.type, "__name__", None),
            "default": action.default,
            "choices": (None if action.choices is None
                        else list(action.choices)),
            "nargs": action.nargs,
            "required": action.required,
        })
        if action.required and action.option_strings:
            required += [action.option_strings[0],
                         (action.choices or ["placeholder"])[0]]
    defaults = vars(build_parser().parse_args([command, *required]))
    defaults.pop("func")
    return {"defaults": defaults, "options": options}


def record() -> dict:
    """Recompute every digest and parser spec (the golden document)."""
    outputs = {}
    origin = os.getcwd()
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                outputs[name] = run_case(argv)
            finally:
                os.chdir(origin)
    parsers = {command: parser_spec(command) for command in _subparsers()}
    return {"outputs": outputs, "parsers": parsers}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name, golden, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run_case(CASES[name]) == golden["outputs"][name]


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_parser_matches_golden(command, golden):
    assert parser_spec(command) == golden["parsers"][command]


def test_golden_covers_every_subcommand(golden):
    assert sorted(golden["parsers"]) == sorted(_subparsers())
    assert sorted(golden["outputs"]) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover
    GOLDEN.write_text(json.dumps(record(), indent=2, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
