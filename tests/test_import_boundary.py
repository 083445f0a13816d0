"""The replay path's import boundary.

A warm CLI invocation replays persisted results, so importing
``repro.cli`` and replaying must not load the simulator stack, the
sampling package or numpy: package ``__init__``s export lazily
(``repro/_lazy.py``), ``kernels`` probes numpy on first use, and the
runner and the session import the simulator only to simulate.  Every
check runs in a fresh interpreter, because this test process has long
since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).parents[1])

#: Modules a warm replay must never load.
HEAVY = ("numpy", "repro.simulator.simulator", "repro.sampling.sampled")

PACKAGES = ("repro", "repro.api", "repro.simulator", "repro.core",
            "repro.memory", "repro.frontend", "repro.backend",
            "repro.workloads", "repro.sampling", "repro.cache",
            "repro.analysis", "repro.service")

_CLI_SCRIPT = """
import contextlib, io, json, sys
from repro import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "stdout": out.getvalue(),
                  "modules": sorted(sys.modules)}))
"""


def _python(code: str, *args: str, **env) -> str:
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + ([environ["PYTHONPATH"]] if environ.get("PYTHONPATH")
                  else []))
    return subprocess.run([sys.executable, "-c", code, *args], env=environ,
                          capture_output=True, text=True, check=True,
                          timeout=300).stdout


def _heavy(modules) -> set:
    return set(HEAVY) & set(modules)


def test_importing_the_cli_loads_no_heavy_module():
    modules = json.loads(_python(
        "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))"))
    assert "repro.cli" in modules
    assert not _heavy(modules)


@pytest.mark.parametrize("argv", [
    ("run", "CLGP+L0", "--benchmarks", "mcf", "--instructions", "1500"),
    ("figure", "5", "--benchmarks", "mcf", "--instructions", "1500"),
], ids=["run", "figure-5"])
def test_warm_cli_replay_loads_no_heavy_module(tmp_path, argv):
    argv = list(argv) + ["--cache-dir", str(tmp_path / "store")]
    cold = json.loads(_python(_CLI_SCRIPT, *argv))
    warm = json.loads(_python(_CLI_SCRIPT, *argv))
    assert cold["code"] == warm["code"] == 0
    assert warm["stdout"] == cold["stdout"]
    # The cold run simulated, so the check can tell the two apart.
    assert "repro.simulator.simulator" in cold["modules"]
    assert not _heavy(warm["modules"])


def test_every_exported_name_resolves():
    report = json.loads(_python(f"""
import importlib, json
missing = {{}}
for package in {PACKAGES!r}:
    module = importlib.import_module(package)
    names = [n for n in module.__all__
             if not hasattr(module, n) or n not in dir(module)]
    if names:
        missing[package] = names
print(json.dumps(missing))
"""))
    assert report == {}


def test_star_import_binds_every_name():
    names = json.loads(_python(
        "import json\nfrom repro import *\n"
        "import repro\n"
        "print(json.dumps([n for n in repro.__all__ if n not in globals()]))"))
    assert names == []


def test_unknown_package_attribute_raises_attribute_error():
    import repro.api

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.api.no_such_name


def test_kernels_probe_numpy_on_first_use():
    pytest.importorskip("numpy")
    probe = ("import json, sys\nfrom repro import kernels\n"
             "before = 'numpy' in sys.modules\n"
             "enabled = kernels.numpy_or_none() is not None\n"
             "print(json.dumps([before, enabled, 'numpy' in sys.modules]))")
    assert json.loads(_python(probe)) == [False, True, True]
    assert json.loads(_python(probe, REPRO_NO_NUMPY="1")) == \
        [False, False, False]
