"""The import boundary: a command loads only the code it executes.

Package exports are lazy (:mod:`repro._lazy`), so listing experiments,
printing help or serving a run from the cache never imports numpy or
the simulators.  These tests pin that from a fresh interpreter, pin the
lazy tables against each package's ``__all__``, and pin the serve
template's preload, which is what keeps forked jobs from importing the
run path themselves.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules only an executing task (or the template preload) needs.
HEAVY = (
    "numpy",
    "repro.core.figures",
    "repro.mpi.simulator",
    "repro.shallowwaters.kernels",
)

PACKAGES = (
    "repro",
    "repro.blas",
    "repro.chaos",
    "repro.core",
    "repro.exec",
    "repro.ftypes",
    "repro.guard",
    "repro.ir",
    "repro.machine",
    "repro.mpi",
    "repro.obs",
    "repro.scenarios",
    "repro.serve",
    "repro.shallowwaters",
)

#: Runs ``python -m repro ARGV...`` and reports, at exit, which of the
#: modules named in the first argument were imported.
_PROBE = """\
import atexit, json, runpy, sys
watch = json.loads(sys.argv[1])
atexit.register(lambda: sys.stderr.write(
    "LOADED " + json.dumps([m for m in watch if m in sys.modules]) + "\\n"))
sys.argv = ["repro", *sys.argv[2:]]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def _loaded(args, cwd, watch=HEAVY):
    """``(exit code, watched modules loaded)`` of one CLI invocation."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(list(watch)), *args],
        cwd=cwd, env=_env(), capture_output=True, text=True, timeout=120,
    )
    line = [l for l in proc.stderr.splitlines() if l.startswith("LOADED ")]
    assert line, proc.stderr
    return proc.returncode, json.loads(line[-1][len("LOADED "):])


class TestCommandsImportOnlyWhatTheyRun:
    def test_list_imports_no_simulator(self, tmp_path):
        assert _loaded(["list"], tmp_path) == (0, [])

    def test_run_help_imports_no_simulator(self, tmp_path):
        assert _loaded(["run", "--help"], tmp_path) == (0, [])

    def test_warm_cached_run_imports_no_simulator(self, tmp_path):
        args = ["run", "lst1", "--cache-dir", "cache",
                "--journal", "run.jnl", "--metrics-dir", "metrics"]
        code, cold = _loaded(args, tmp_path)
        assert code == 0
        # The cold run executes the listing, which needs the figures.
        assert "repro.core.figures" in cold
        assert _loaded(args, tmp_path) == (0, [])


class TestLazyExports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_every_exported_name_resolves(self, name):
        package = importlib.import_module(name)
        assert len(set(package.__all__)) == len(package.__all__)
        for attr in package.__all__:
            assert getattr(package, attr) is not None, (name, attr)
            assert attr in dir(package), (name, attr)

    @pytest.mark.parametrize("name", PACKAGES)
    def test_star_import_binds_all(self, name):
        namespace = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(namespace)
        for attr in package.__all__:
            assert namespace[attr] is getattr(package, attr)

    def test_unknown_name_is_an_attribute_error(self):
        import repro.core

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.core.no_such_name  # noqa: B018

    def test_export_is_the_submodule_object(self):
        import repro.exec
        from repro.exec import engine

        assert repro.exec.Engine is engine.Engine


def test_serve_template_preloads_the_run_path(tmp_path):
    """The template imports the run path before its first fork, so a
    forked job inherits numpy and the figures instead of importing
    them; with stdin at EOF the template returns after preloading."""
    script = (
        "import json, sys\n"
        "from repro.serve.worker import template_main\n"
        "code = template_main(sys.argv[1])\n"
        "sys.stderr.write('LOADED ' + json.dumps(\n"
        "    [m for m in ('numpy', 'repro.core.figures') if m in sys.modules]"
        ") + '\\n')\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        stdin=subprocess.DEVNULL, env=_env(), capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "LOADED " + json.dumps(["numpy", "repro.core.figures"]) in (
        proc.stderr
    )
