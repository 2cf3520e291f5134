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
CHANGES.md.
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
    columns = header.split(",")
    bad = [m for m in map(_mismatch, meta, want_meta) if m]
    for n, (row, want) in enumerate(zip(rows, want_rows)):
        if row.count(",") != want.count(","):
            bad.append(f"row {n}: {row!r} != {want!r}")
        for col, a, b in zip(columns, row.split(","), want.split(",")):
            m = _mismatch(a, b, 1e-9 if col == "residual" else 0.0)
            if m:
                bad.append(f"row {n} {col}: {m}")
    assert not bad, "\n".join(bad[:10])
