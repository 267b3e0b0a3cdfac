"""The reproduction record: the claims registry, ``CLAIMS.json`` and ``repro claims``."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.simulation.claims import evaluate_claims, record_json

RECORD_PATH = pathlib.Path(__file__).resolve().parents[2] / "CLAIMS.json"
RECORD = json.loads(RECORD_PATH.read_text())

#: Claims that do not hold on their fixed instance.  The last burst of the
#: random-matching stream comes at round 210 of 220, and random matchings
#: need about 12.5 rounds to return to the band (13 and 12 after the first
#: two bursts), so the stream ends outside it.  Counter and sequential draws
#: recover equally fast over seeds 1-20; see CHANGES.md.
KNOWN_FAILURES = {
    ("dynamic-recovery", "every burst returns to the band (bursts <= recovered)",
     "random-matching"),
    ("dynamic-recovery", "final max-min <= band", "random-matching"),
}


@pytest.fixture(scope="module")
def fresh_record():
    return evaluate_claims()


def test_fresh_evaluation_equals_the_checked_in_record(fresh_record):
    assert fresh_record == RECORD
    assert record_json(fresh_record) + "\n" == RECORD_PATH.read_text()


def _claim_cases():
    for entry in RECORD:
        for index, row in enumerate(entry["claims"]):
            key = (entry["id"], row["claim"], row["instance"])
            marks = ([pytest.mark.xfail(strict=True, reason="too few rounds after the "
                                        "last burst")] if key in KNOWN_FAILURES else [])
            yield pytest.param(entry["id"], index, marks=marks,
                               id=f"{entry['id']}: {row['claim']} [{row['instance']}]")


@pytest.mark.parametrize("entry_id,index", list(_claim_cases()))
def test_claim_holds(fresh_record, entry_id, index):
    entry = next(entry for entry in fresh_record if entry["id"] == entry_id)
    row = entry["claims"][index]
    assert row["holds"], row


def test_claim_cases_are_unique():
    keys = [(entry["id"], row["claim"], row["instance"])
            for entry in RECORD for row in entry["claims"]]
    assert len(keys) == len(set(keys))


def test_cli_prints_tables_and_claims_and_exits_zero(capsys):
    assert main(["claims", "--only", "initial-load", "theorem8"]) == 0
    output = capsys.readouterr().out
    assert "=== theorem8: " in output and "=== initial-load: " in output
    # Entries print in registry order, whatever the order of --only.
    assert output.index("=== theorem8: ") < output.index("=== initial-load: ")
    assert "base_level" in output and "reference_shape" in output
    assert "margin" in output
    assert output.rstrip().endswith("17/17 claims hold")


def test_cli_exits_one_when_a_claim_fails(capsys):
    assert main(["claims", "--only", "dynamic-recovery"]) == 1
    output = capsys.readouterr().out
    assert "FAILED dynamic-recovery: every burst returns to the band" in output


def test_cli_json_is_the_checked_in_record(capsys):
    assert main(["claims", "--only", "theorem8", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        entry for entry in RECORD if entry["id"] == "theorem8"]


def test_cli_rejects_unknown_ids(capsys):
    with pytest.raises(SystemExit):
        main(["claims", "--only", "table3"])
