"""The names that perfbench/tracer.py traces must exist in the package.

The benchmark's tracer drops a metric whose name no longer resolves, and
the benchmark refuses a traced result without every per-layer metric; these
tests catch such a rename or a lost import in tier 1.  They only read the
tracer's tables.
"""

import inspect
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return import_module("tracer")


def test_every_traced_muntzlab_span_resolves(tracer):
    spans = {name: (mod, attr) for name, (mod, attr) in tracer.SPANS.items()
             if mod.split(".")[0] == "muntzlab"}
    assert spans
    for name, (mod, attr) in spans.items():
        assert callable(getattr(import_module(mod), attr, None)), name


def test_cli_runners_are_a_dict_of_functions():
    runners = import_module("muntzlab.cli").RUNNERS
    assert isinstance(runners, dict) and runners
    assert all(inspect.isfunction(fn) for fn in runners.values())


def test_importing_the_cli_loads_every_timed_module(tracer):
    code = ("import json, sys\n"
            "import muntzlab.cli\n"
            f"print(json.dumps([m for m in {sorted(tracer.IMPORTS.values())!r}"
            " if m not in sys.modules]))\n")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
