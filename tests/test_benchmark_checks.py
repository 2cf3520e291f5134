"""The benchmark's output checks must still pass on the package's output.

`benchmarks/workloads.py` parses the CSV and metadata of each call and
holds them to a scipy oracle.  A renamed field or a moved digit fails
there, and only a benchmark run would show it.  Here one seed-1 round of
each benchmarked workload runs through `cli.main` and its check, the way
`benchmarks/run.py` drives them, with `benchmarks/` loaded read-only.
"""

import importlib.util
from pathlib import Path
import random
import sys

import pytest

from diskchain import cli

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture()
def workloads(monkeypatch):
    # the checks import `oracle` from benchmarks/ when they run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["hopping-grid", "gate-sweep"])
def test_seed_one_round_passes_its_check(workloads, name, tmp_path, capsys):
    make_round, check = workloads.WORKLOADS[name]
    for i, call in enumerate(make_round(random.Random(f"{name}:1"))):
        ini = tmp_path / f"c{i}.ini"
        ini.write_text(call.ini, encoding="utf-8")
        out_path = tmp_path / f"c{i}.csv"
        argv = [call.command, "--config", str(ini)]
        if call.out_file:
            argv += ["--out", str(out_path)]
        code = cli.main(argv)
        stdout, stderr = capsys.readouterr()
        out = workloads.Output(code=code, stdout=stdout, stderr=stderr,
                               out_path=out_path if call.out_file else None)
        per_op = check(call, out)
        assert len(per_op) == call.ops
        assert [fails for fails in per_op if fails] == [], call.command
