"""The committed trajectory, `BENCH_scaling.json`, read as it is: no grid runs."""

import importlib.util
import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_scaling():
    spec = importlib.util.spec_from_file_location("scaling", os.path.join(ROOT, "tools", "scaling.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


scaling = _load_scaling()

with open(os.path.join(ROOT, "BENCH_scaling.json"), encoding="utf-8") as fh:
    RECORDS = json.load(fh)["records"]

HEX = re.compile(r"[0-9a-f]{40}|[0-9a-f]{64}")


def test_the_seed_record_comes_first():
    seed = RECORDS[0]
    assert seed["old"]["commit"].startswith("219bda4")
    assert seed["new"]["commit"].startswith("37bb285")


@pytest.mark.parametrize("index", range(len(RECORDS)))
def test_a_record_holds_every_row_and_run(index):
    record = RECORDS[index]
    for side in ("old", "new"):
        assert HEX.fullmatch(record[side]["src_tree"])
        assert record[side]["commit"] is None or HEX.fullmatch(record[side]["commit"])
        assert isinstance(record[side]["rev"], str)
    assert re.fullmatch(r"3\.\d+\.\d+", record["python"])
    assert record["nproc"] >= 1 and record["timeout_s"] > 0
    assert record["runs_per_side"] >= 3
    assert [(row["command"], row["env"]) for row in record["rows"]] == scaling.GRID
    assert len(record["rows"]) == 14
    for row in record["rows"]:
        runs = row["runs"]["old"] + row["runs"]["new"]
        assert len(row["runs"]["old"]) == len(row["runs"]["new"]) == record["runs_per_side"]
        for run in runs:
            assert run["wall_s"] == "timeout" or run["wall_s"] > 0, row["command"]
            assert run["peak_rss_mib"] > 0 and isinstance(run["exit"], int)
            assert HEX.fullmatch(run["stdout_sha256"])
        assert [run for run in runs if run["wall_s"] != "timeout"], row["command"]
        # a revision prints the same bytes and exit code on every run of a row
        for side in ("old", "new"):
            finished = [run for run in row["runs"][side] if run["wall_s"] != "timeout"]
            assert len({(run["stdout_sha256"], run["exit"]) for run in finished}) <= 1, row["command"]


@pytest.mark.parametrize("index", [0, 1])
def test_the_committed_pairs_print_the_same_bytes(index):
    """The seed pair, and the parent against the one-trace-rule change, print
    the same bytes and exit 0 on every row; a later record may change output."""
    for row in RECORDS[index]["rows"]:
        finished = [run for side in ("old", "new") for run in row["runs"][side] if run["wall_s"] != "timeout"]
        assert {(run["stdout_sha256"], run["exit"]) for run in finished} == {(finished[0]["stdout_sha256"], 0)}


def test_the_report_reads_every_row(capsys):
    scaling.report(RECORDS)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(RECORDS) * (1 + len(scaling.GRID))
