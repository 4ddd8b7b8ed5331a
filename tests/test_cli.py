"""Command-line surface: outputs, formats, exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import expected as X
from srgfusion import cli
from srgfusion.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_scan_json_petersen():
    code, text = run_cli("scan", "--n", "10", "--k", "3", "--mu", "0",
                         "--nu", "1", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["count"] == 13
    assert {e["partition"] for e in doc["partitions"]} == X.GUARANTEED_13
    # round trip
    assert json.loads(json.dumps(doc)) == doc
    # every fused multiplicity sums to n^2
    for entry in doc["partitions"]:
        assert sum(int(x) for x in entry["fused_multiplicities"]) == 100


def test_scan_quadratic_serialization():
    code, text = run_cli("scan", "--n", "13", "--k", "6", "--mu", "2",
                         "--nu", "3", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["count"] == 24
    flat = json.dumps(doc)
    # Paley(13) valencies are rational even though eigenvalues are not
    assert '"d"' not in flat
    entry = {e["partition"]: e for e in doc["partitions"]}["27|34|59|6|8"]
    assert all(isinstance(v, (int, str)) or "d" in v
               for v in entry["fused_valencies"])


def test_table_quadratic_serialization():
    code, text = run_cli("table", "--graph", "paley13", "--format", "json")
    assert code == 0
    rows = json.loads(text)["table"]["rows"]
    # r, s = (-1 +- sqrt 13)/2 as {"a", "b", "d"}: a + b sqrt(d)
    assert rows[1][1] == {"a": "-1/2", "b": "1/2", "d": 13}
    assert rows[2][1] == {"a": "-1/2", "b": "-1/2", "d": 13}


def test_scan_deterministic_output():
    a = run_cli("scan", "--graph", "petersen", "--format", "json")
    b = run_cli("scan", "--graph", "petersen", "--format", "json")
    assert a == b


def test_table_text_and_json():
    code, text = run_cli("table", "--n", "10", "--k", "3", "--mu", "0", "--nu", "1")
    assert code == 0
    assert "primitive: True" in text
    code, text = run_cli("table", "--eigen", "2,6,2,-1", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["feasibility"]["imprimitive_kind"] == "k=r,s=-1"
    assert doc["feasibility"]["violations"] == []


def test_table_names_each_feasibility_violation():
    """mu = k + r + s + rs = -13 is the structure constant b1[1][1]; both
    formats name it with its value."""
    code, text = run_cli("table", "--eigen", "16,448,1,-15")
    assert code == 0
    assert "primitive: False\nviolation: b1[1][1] = -13\n" in text
    code, text = run_cli("table", "--eigen", "16,448,1,-15", "--format", "json")
    assert code == 0
    assert json.loads(text)["feasibility"]["violations"] == [
        {"item": "b1[1][1]", "value": -13}]


def test_eigen_input_imprimitive_scan():
    code, text = run_cli("scan", "--eigen", "2,6,2,-1", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["count"] == 60  # the m = r degenerate instance


def test_verify_command():
    code, text = run_cli("verify", "--graph", "paley5",
                         "--partition", "23|47|5689")
    assert code == 0
    assert "rank 4" in text

    code, text = run_cli("verify", "--graph", "petersen",
                         "--partition", "249|37|5|68", "--format", "json")
    assert code == 0  # criterion and oracle agree that it is not a fusion
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_WITNESS_JSON_SHA256
    doc = json.loads(text)
    assert doc["criterion_fusion"] is False and doc["matrix_fusion"] is False
    assert doc["witness"] == {
        "classes": [1, 1, 1],
        "cells": [[0, 7], [0, 11]],
        "values": [24, 17],
    }


def test_wreath_command():
    code, text = run_cli("wreath", "--orientation", "1", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert set(doc["guaranteed"]) == X.WREATH1_GUARANTEED
    assert set(doc["special_clique_case"]) == X.WREATH1_CLIQUE
    assert set(doc["special_multipartite_case"]) == X.WREATH1_MULTIPARTITE
    assert set(doc["never"]) == X.WREATH1_NEVER

    code, text = run_cli("wreath", "--orientation", "2", "--n", "10", "--k", "3",
                         "--mu", "0", "--nu", "1", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert set(doc["input_positive_coarsenings"]) == X.WREATH2_GUARANTEED


def test_lattice_dot_output():
    code, text = run_cli("lattice", "--graph", "petersen")
    assert code == 0
    assert text.startswith("digraph")
    assert '"2347|5689" -> "23456789"' not in text  # single block not scanned
    assert '"23|47|5689" -> "2347|5689"' in text
    # acyclic: edges go strictly from finer to coarser partitions
    from srgfusion.partitions import parse, refines
    for line in text.splitlines():
        line = line.strip()
        if "->" in line and line.endswith(";"):
            a, _, b = line.rstrip(";").partition("->")
            pa, pb = parse(a.strip().strip('"')), parse(b.strip().strip('"'))
            assert refines(pa, pb) and pa != pb


def test_crosscheck_command():
    code, text = run_cli("crosscheck", "--graph", "paley5", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["checked"] == 4140 and doc["disagreements"] == []


def test_crosscheck_one_partition():
    for text, positives in (("249|37|5|68", 1), ("2|3456789", 0)):
        code, out = run_cli("crosscheck", "--graph", "rook3", "--partition", text,
                            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["checked"], doc["positives"], doc["disagreements"]) == (
            1, positives, [])


def test_partition_refused_outside_verify_and_crosscheck(capsys):
    inputs = {"table": ("--graph", "paley5"), "scan": ("--graph", "paley5"),
              "wreath": (), "classify": (), "lattice": ("--graph", "paley5")}
    for command, source in inputs.items():
        assert run_cli(command, *source, "--partition", "23|456789") == (1, "")
        err = capsys.readouterr().err
        assert err == f"error: {command} takes no --partition\n"


# sha256 of the `verify --format json` text of one refuted partition on
# Petersen; pins the witness the matrix oracle reports first
VERIFY_WITNESS_JSON_SHA256 = "f18562d6dc63e83e88418e6e82b6c4fd0c3e306e47a239b789deb0d5237821a4"

# sha256 of the full `classify --format json` text; any change to a verdict,
# family list, note or the rendering changes it
CLASSIFY_JSON_SHA256 = "acc26176fbe0b8e0db79c28fe724caf25adb39599da76081f26502a1be1907b1"


def test_classify_command(classification):
    code, text = run_cli("classify", "--format", "json")
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == CLASSIFY_JSON_SHA256
    doc = json.loads(text)
    assert doc["summary"]["guaranteed"] == 13
    assert doc["summary"]["unresolved"] == 0
    assert doc["summary"]["families"]["IMP1"] == 45
    assert doc["summary"]["families"]["CONF"] == 11
    assert len(doc["records"]) == 4140


CLASSIFY_TEXT = """\
classification of all 4140 partitions
  guaranteed: 13
  trivial: 2
  family: 115
  infeasible: 4010
  unresolved: 0
  family membership:
    IMP1: 45  [23456|789, 2356789|4, 2356|4|789, 2356|4|7|89, 23|4|56|789, 24578|369 ...]
    IMP2: 45  [2345689|7, 23789|456, 2389|456|7, 2389|4|56|7, 23|456|7|89, 2456789|3 ...]
    CONF: 11  [234579|68, 234678|59, 2347|59|68, 2359|4678, 2359|47|68, 2368|4579 ...]
    NEWS1: 1  [249|37|5|68]
    NEWS2: 1  [24|357|68|9]
    CR4: 1  [249|37|5|68]
    CLB1: 1  [249|35678]
    CLB1S: 1  [24689|357]
    CLB2A: 1  [2468|3579]
    CLB2B: 1  [2459|3678]
    PLS2A: 1  [2468|3579]
    PLS2B: 1  [2459|3678]
    SP9: 6  [249|357|68, 25679|348, 267|34589, 267|348|59, 267|34|59|8, 27|348|59|6]
    SP5: 2  [26|38|49|57, 29|35|48|67]
"""

WREATH_PETERSEN_TEXT = """\
                  A_00           A_10           A_20 A_01+A_11+A_21 A_02+A_12+A_22  mult
chi_00               1              3              6             30             60  1
chi_01               1              3              6             10            -20  5
chi_02               1              3              6            -20             10  4
chi_11               1              1             -2              0              0  50
chi_21               1             -2              1              0              0  40
guaranteed: 23|456789, 23|456|789, 2|3|456789
special_clique_case: 23456|789, 2|3456789, 2|3456|789
special_multipartite_case: 23789|456, 2456789|3, 2789|3|456
never: 2456|3789, 2456|3|789, 2789|3456, 2|3789|456
trivial: 23456789, 2|3|456|789
positive coarsenings for this input:
  23|456789
  23|456|789
  2|3|456789
"""


def test_classify_text(classification):
    assert run_cli("classify") == (0, CLASSIFY_TEXT)


def test_wreath_text_with_graph():
    assert run_cli("wreath", "--graph", "petersen") == (0, WREATH_PETERSEN_TEXT)


def test_usage_errors(capsys):
    code, _ = run_cli("scan")
    assert code == 1
    code, _ = run_cli("scan", "--n", "10", "--k", "3", "--mu", "0", "--nu", "1",
                      "--graph", "petersen")
    assert code == 1
    code, _ = run_cli("verify", "--graph", "petersen")
    assert code == 1
    code, _ = run_cli("scan", "--graph", "petersen", "--format", "dot")
    assert code == 1
    code, _ = run_cli("verify", "--graph", "nonsense", "--partition", "23456789")
    assert code == 1
    code, _ = run_cli("scan", "--eigen", "3,6,0,-2")
    assert code == 1
    capsys.readouterr()
    for argv, message in (
        (("table", "--eigen", "2,6,1,1"), "need r > s"),
        (("scan", "--eigen", "2,6,1,1"), "need r > s"),
        (("wreath", "--eigen", "2,6,1,1"), "need r > s"),
        (("table", "--eigen", "2,6,1/0,1"), "zero denominator"),
    ):
        assert run_cli(*argv) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def test_a_key_error_is_a_bug_not_a_usage_error(monkeypatch, capsys):
    """Every input error is a ValueError; a KeyError from a command is a
    bug and propagates instead of printing as a usage error."""
    def broken(args):
        raise KeyError("missing entry")

    monkeypatch.setitem(cli._COMMANDS, "table", broken)
    with pytest.raises(KeyError, match="missing entry"):
        run_cli("table", "--eigen", "3,6,1,-2")
    assert capsys.readouterr().err == ""


def test_python_dash_m_runs_the_cli():
    """``python -m srgfusion`` runs from a checkout, with only src/ on the path."""
    argv = ["crosscheck", "--graph", "paley5", "--partition", "2347|5689"]
    proc = subprocess.run([sys.executable, "-m", "srgfusion", *argv],
                          capture_output=True, text=True, check=False,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert (0, proc.stdout) == run_cli(*argv)


def test_classify_and_scan_do_not_load_numpy():
    """The oracle, and NumPy with it, loads only for a command given a
    named graph; the package's oracle names still resolve."""
    code = "\n".join([
        "import io, sys",
        "import srgfusion, srgfusion.cli as cli",
        "for argv in (['classify', '--format', 'json'], ['scan', '--n', '10',",
        "             '--k', '3', '--mu', '0', '--nu', '1']):",
        "    assert cli.main(argv, out=io.StringIO()) == 0",
        "assert 'numpy' not in sys.modules",
        "from srgfusion import verify_scheme",
        "assert verify_scheme is srgfusion.oracle.verify_scheme",
        "print(','.join(srgfusion.__all__))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=False,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    import srgfusion
    assert proc.stdout.strip() == ",".join(srgfusion.__all__)


# Every invocation below mapped to (exit code, sha256 of stdout, sha256 of
# stderr), each digest cut to 16 hex digits.  Together they cover each
# command in each format it accepts and the usage errors; any change to a
# byte the CLI writes fails here.
EMPTY = "e3b0c44298fc1c14"  # no output

PINNED_OUTPUTS = {
    "table --n 10 --k 3 --mu 0 --nu 1":
        (0, "1a6ff67753071b7c", EMPTY),
    "table --n 10 --k 3 --mu 0 --nu 1 --format json":
        (0, "ba23748770012958", EMPTY),
    "table --graph paley13":
        (0, "56d372f02c93c765", EMPTY),
    "table --graph paley13 --format json":
        (0, "b6454e8dcf282dac", EMPTY),
    "table --eigen 2,6,2,-1 --format json":
        (0, "53eb2e9e7671c8d4", EMPTY),
    "table --n 15 --k 7 --mu 3 --nu 3 --table-algebra":
        (0, "6b4563181e78ca6e", "641fac622ababc84"),
    "table --eigen 16,448,1,-15":  # mu = k+r+s+rs = -13: not primitive
        (0, "87cf563b9b849f57", EMPTY),
    "scan --graph petersen":
        (0, "5dd407b55048c609", EMPTY),
    "scan --graph petersen --format json":
        (0, "4fd239c1b804975c", EMPTY),
    "scan --n 13 --k 6 --mu 2 --nu 3 --format json":
        (0, "4d3d6c06b511443d", EMPTY),
    "scan --eigen 2,6,2,-1":
        (0, "75cb42a82270b69e", EMPTY),
    "lattice --graph petersen":
        (0, "7a08fbd2bb30c818", EMPTY),
    "lattice --graph paley5 --format json":
        (0, "9c7d0b73cdaab32d", EMPTY),
    "wreath":
        (0, "c55527dcd5e63826", EMPTY),
    "wreath --orientation 2 --format json":
        (0, "0a3eb0fa19360829", EMPTY),
    "wreath --graph petersen":
        (0, "8a71e4cd27a104a4", EMPTY),
    "wreath --orientation 2 --n 10 --k 3 --mu 0 --nu 1 --format json":
        (0, "c5ad03214257de0c", EMPTY),
    "classify":
        (0, "f7952004a526faa9", EMPTY),
    "classify --format json":
        (0, "acc26176fbe0b8e0", EMPTY),
    "verify --graph paley5 --partition 23|47|5689":
        (0, "d891e87a2f80803a", EMPTY),
    "verify --graph paley5 --partition 23|47|5689 --format json":
        (0, "9332c974cf3ac570", EMPTY),
    "verify --graph petersen --partition 249|37|5|68":
        (0, "454a246d92108a4b", EMPTY),
    "verify --graph petersen --partition 249|37|5|68 --format json":
        (0, "f18562d6dc63e83e", EMPTY),
    "crosscheck --graph paley5":
        (0, "8193ece4a2bf98b0", EMPTY),
    "crosscheck --graph paley5 --format json":
        (0, "6e4922497ac72ab0", EMPTY),
    "crosscheck --graph rook3 --partition 249|37|5|68":
        (0, "0ee291105dc8156c", EMPTY),
    "crosscheck --graph rook3 --partition 249|37|5|68 --format json":
        (0, "a26a5f73acea6bb5", EMPTY),
    "scan":
        (1, EMPTY, "df4519e16c77af89"),
    "scan --graph petersen --eigen 3,6,0,-2":
        (1, EMPTY, "df4519e16c77af89"),
    "scan --n 10":
        (1, EMPTY, "66fd88253480e64f"),
    "table --eigen 1,2,3":
        (1, EMPTY, "02d7e6a298c1a78e"),
    "table --eigen 2,6,1/0,1":
        (1, EMPTY, "01d6aeb94a782a98"),
    "wreath --eigen 2,6,1,1":
        (1, EMPTY, "5627c6c694fd1e28"),
    "scan --graph petersen --format dot":
        (1, EMPTY, "58f1d6b262da5853"),
    "table --format xml":
        (1, EMPTY, "133c1e7ed2b1f824"),
    "table --graph paley5 --partition 23|456789":
        (1, EMPTY, "da49a806e7d92c26"),
    "verify --graph petersen":
        (1, EMPTY, "b5664ec407b6e153"),
    "verify --graph nonsense --partition 23456789":
        (1, EMPTY, "5713811633dea6ed"),
    "crosscheck":
        (1, EMPTY, "487dbcdbad1e768a"),
}


def sha16(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("invocation", list(PINNED_OUTPUTS))
def test_pinned_outputs(invocation, classification, capsys):
    code, text = run_cli(*invocation.split())
    err = capsys.readouterr().err
    assert (code, sha16(text), sha16(err)) == PINNED_OUTPUTS[invocation]
