"""Recorded CLI outputs, replayed in-process.

``golden/cli_outputs.json`` maps each command line below to the exit code
and the exact stdout it gave when it was recorded.  The README's `check`
examples run at the default corpus bounds; the hull grid runs `hull` and
`connected-hull` at k = 1, 2 and inf at small bounds, next to four failing
sweeps and two functorial sweeps at the default bounds.  The commands built
on overlap components follow: `linegraph`, with the DOT drawing it writes
recorded as well, `cluster` under the classic and toy component rules,
`search` and `witness`.

Re-record only when a change to the output is intended, and say so:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from hyperclust.cli import main

from test_cli import SMALL

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_outputs.json"

README_CHECKS = (
    ("check", "excisive", "--scheme", "representable:{E*},k=2"),
    ("check", "functorial", "--scheme", "toy:component_rule"),
    ("check", "equal", "--scheme", "representable:{E*},k=1",
     "--scheme2", "representable:{E*},k=inf"),
    ("check", "hull", "--motifs", "{K_2}", "--graph", "P_3"),
    ("check", "connected-hull", "--motifs", "{E_3}", "--graph", "G_4", "--k", "2",
     "--extra", "H_6"),
)

HULL_PAIRS = (
    ("{K_2}", "P_3"),
    ("{K_2}", "K_2"),
    ("{E_3}", "E_3"),
    ("{E_3}", "G_4"),
    ("{K_3}", "R_1"),
    ("{K_3}", "C_4"),
    ("{P_3}", "K_3"),
    ("{P_3}", "C_4"),
    ("{K_2,E_3}", "H_6"),
    ("{E_2,K_3}", "corner"),
)

HULL_GRID = tuple(
    ("check", *mode, "--motifs", motifs, "--graph", graph, *SMALL)
    for motifs, graph in HULL_PAIRS
    for mode in (
        ("hull",),
        ("connected-hull", "--k", "1"),
        ("connected-hull", "--k", "2"),
        ("connected-hull", "--k", "inf"),
    )
) + (("check", "hull", "--motifs", "{E_3}", "--graph", "G_4", "--k", "2", *SMALL),)

# Failing sweeps at small bounds, with the counterexample list cut short.
SWEEPS = (
    ("check", "excisive", "--scheme", "toy:noprops", *SMALL),
    ("check", "functorial", "--scheme", "toy:always_one_part_except_K2", *SMALL),
    ("check", "refines", "--scheme", "representable:{E*},k=1",
     "--scheme2", "representable:{E*},k=2", "--limit", "2", *SMALL),
    ("check", "equal", "--scheme", "representable:{E*},k=1",
     "--scheme2", "representable:{E*},k=2", "--limit", "0", *SMALL),
)

# Functorial sweeps over every corpus morphism at the default bounds: one
# failing with more counterexamples than the default limit shows, one passing.
FUNCTORIAL = (
    ("check", "functorial", "--scheme", "toy:noprops"),
    ("check", "functorial", "--scheme", "representable:{E*},k=2"),
)

# A trailing --dot gets a file to write, whose contents are recorded too.
COMPONENTS = (
    ("linegraph", "P_3", "--k", "1", "--dot"),
    ("linegraph", "H_6", "--k", "2", "--dot"),
    ("linegraph", "corner", "--k", "inf"),
    ("cluster", "P_3", "--scheme", "classic"),
    ("cluster", "C_4", "--scheme", "classic"),
    ("cluster", "K_1", "--scheme", "classic"),
    ("cluster", "P_3", "--scheme", "toy:component_rule"),
    ("search", "--max-vertices", "9"),
    ("search", "--max-vertices", "4"),
    ("witness", "--motifs", "{R_0,R_1,R_2}"),
)

CASES = README_CHECKS + HULL_GRID + SWEEPS + FUNCTORIAL + COMPONENTS


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    if argv[-1] != "--dot":
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return {"exit": code, "stdout": out.getvalue()}
    with tempfile.TemporaryDirectory() as scratch:
        dot = pathlib.Path(scratch) / "line.dot"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(dot)])
        return {"exit": code, "stdout": out.getvalue(), "dot": dot.read_text()}


def _key(argv):
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(map(_key, CASES))


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_output_matches_the_recording(corpus_cache_dir, golden, argv):
    assert _run(argv) == golden[_key(argv)]


def record():
    with tempfile.TemporaryDirectory() as cache:
        os.environ["HYPERCLUST_CACHE_DIR"] = cache
        recorded = {_key(argv): _run(argv) for argv in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(record())
