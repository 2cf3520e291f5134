"""Default-output guard: every command run on the embedded defaults must
keep printing what tests/data holds.

The files are the commands' default CSV, captured with
`python -m diskchain.cli <command> > tests/data/<command>.csv`; for
gate-sim only the metadata (which carries the truth table), the header,
every 100th trajectory row and the last row are kept.  Text must match
exactly.  Numbers must agree to 1e-9 relative, which leaves room for
platform rounding and for quadrature changes at the 1e-11 level, but not
for a change of method.  The residual column is the difference of two
O(1) ratios, so its rounding is absolute: it gets 1e-9 absolute as well.
A deliberate output change regenerates the file and says so in
CHANGES.md.  README's demo.ini transcripts are held to the same rules.
"""

import math
from pathlib import Path
import re

import pytest

from diskchain.cli import main

DATA = Path(__file__).parent / "data"
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _split(text):
    lines = text.splitlines()
    meta = [l for l in lines if l.startswith("#")]
    header, *rows = [l for l in lines if not l.startswith("#")]
    return meta, header, rows


def _sample(rows):
    """Every 100th row and the last one."""
    keep = list(range(0, len(rows), 100))
    if keep[-1] != len(rows) - 1:
        keep.append(len(rows) - 1)
    return [rows[i] for i in keep]


def _mismatch(got, want, abs_tol=0.0):
    """None if the cells agree, else a description."""
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return f"text {got!r} != {want!r}"
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        if not math.isclose(float(a), float(b), rel_tol=1e-9,
                            abs_tol=abs_tol):
            return f"number {a} != {b}"
    return None


@pytest.mark.parametrize("command", ["disk-solve", "coupling-sweep",
                                     "dispersion", "gate-sim"])
def test_default_output_unchanged(capsys, command):
    assert main([command]) == 0
    meta, header, rows = _split(capsys.readouterr().out)
    want_meta, want_header, want_rows = _split(
        (DATA / f"{command}.csv").read_text())
    if command == "gate-sim":
        rows = _sample(rows)

    assert header == want_header
    assert len(meta) == len(want_meta)
    assert len(rows) == len(want_rows)
    bad = [m for m in map(_mismatch, meta, want_meta) if m]
    bad += _row_mismatches(header, rows, want_rows)
    assert not bad, "\n".join(bad[:10])


def _row_mismatches(header, rows, want_rows):
    """A description of each CSV cell that disagrees."""
    bad = []
    columns = header.split(",")
    for n, (row, want) in enumerate(zip(rows, want_rows)):
        if row.count(",") != want.count(","):
            bad.append(f"row {n}: {row!r} != {want!r}")
        for col, a, b in zip(columns, row.split(","), want.split(",")):
            m = _mismatch(a, b, 1e-9 if col == "residual" else 0.0)
            if m:
                bad.append(f"row {n} {col}: {m}")
    return bad


def _readme_transcripts():
    """README's `$ command` lines, each with the non-blank lines shown
    under it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    shown, lines = {}, None
    for line in readme.splitlines():
        if line.startswith("```"):
            lines = None
        elif line.startswith("$ "):
            lines = shown[line[2:]] = []
        elif lines is not None and line:
            lines.append(line)
    return shown


def test_readme_demo_matches_the_program(capsys, monkeypatch, tmp_path):
    # README's demo.ini transcripts: CSV blocks (a '...' line elides
    # metadata) and the gate-sim truth table
    shown = _readme_transcripts()
    (tmp_path / "demo.ini").write_text("\n".join(shown["cat demo.ini"]))
    monkeypatch.chdir(tmp_path)
    bad = []
    for command in ("disk-solve --config demo.ini",
                    "coupling-sweep --config demo.ini"):
        assert main(command.split()) == 0
        meta, header, rows = _split(capsys.readouterr().out)
        want_meta, want_header, want_rows = _split("\n".join(
            l for l in shown[f"python3 -m diskchain.cli {command}"]
            if l != "..."))
        by_key = {l.partition(":")[0]: l for l in meta}
        bad += [f"{command}: {m}" for want in want_meta
                if (m := _mismatch(by_key.get(want.partition(":")[0], ""),
                                   want))]
        assert header == want_header and len(rows) == len(want_rows)
        bad += [f"{command}: {m}"
                for m in _row_mismatches(header, rows, want_rows)]

    assert main(["gate-sim", "--out", "traj.csv"]) == 0
    got = capsys.readouterr().out.splitlines()
    want = shown["python3 -m diskchain.cli gate-sim --out traj.csv"]
    assert len(got) == len(want)
    bad += [f"gate-sim: {m}" for m in map(_mismatch, got, want) if m]
    assert not bad, "\n".join(bad)
