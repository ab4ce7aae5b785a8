"""Replay of the recorded representative systems.

Every `reps`, `reps-verify` and `field-reps` entry of
perfbench/goldens.json, keyed "group kind d size", is run through the
CLI; it must exit 0 and print the recorded count and the recorded
sha256 of its JSON list of representatives.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cycloperm.cli import main

GOLDENS = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                      / "goldens.json").read_text())
CASES = [(name, key, GOLDENS[name][key])
         for name in ("reps", "reps-verify", "field-reps")
         for key in GOLDENS[name]]


@pytest.mark.parametrize(
    "name, key, golden", CASES,
    ids=[f"{name}-{key.replace(' ', '-')}" for name, key, _ in CASES])
def test_rep_system_matches_golden(capsys, name, key, golden):
    group, kind, d, size = key.split()
    argv = ["reps", "--group", group, "--kind", kind, "--d", d,
            "--q" if group in ("gcp", "focp", "cp") else "--m", size,
            "--format", "structured"]
    if name == "reps-verify":
        argv.append("--verify")
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == golden["count"]
    digest = hashlib.sha256(json.dumps(payload["rep"]).encode()).hexdigest()
    assert digest == golden["sha256"]
