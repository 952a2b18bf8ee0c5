"""The package's public surface: the root exports nothing, so every
``qatkit.<submodule>`` attribute is the submodule itself, and every name a
submodule lists in ``__all__`` exists; and the CLI's run paths load no scipy."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qatkit

# ``__main__`` runs the CLI when imported
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(qatkit.__path__) if m.name != "__main__")


def test_submodules_found():
    assert {"cli", "experiments", "quantize", "transform"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_as_module(name):
    module = importlib.import_module(f"qatkit.{name}")
    assert getattr(qatkit, name) is module


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qatkit.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


# scipy loads only for calibrate-clip and fit-scaling; a cold start, every
# bit-width of the packaged clip table and the quadratic, convergence and toy
# lanes never import it
NO_SCIPY_RUN = """
import sys
import qatkit.cli
from qatkit.quantize import QuantSpec, default_clip_factor

default_clip_factor(4)
for bits in range(2, 9):
    QuantSpec(scheme="int-plain", bits=bits)
out = sys.argv[1]
for i, argv in enumerate((
    ["quadratic", "--kappas", "1,10", "--dim", "12", "--steps", "5", "--quant", "int-hadamard:4"],
    ["quadratic", "--kappas", "10", "--dim", "12", "--steps", "5", "--quant", "int-plain:8"],
    ["convergence", "--objective", "quadratic", "--dim", "4", "--quant", "int-hadamard:4", "--steps", "5,500"],
    ["toy-pareto", "--lambdas", "1", "--steps", "5"],
)):
    assert qatkit.cli.main(argv + ["--out", f"{out}/{i}"]) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_runs_load_no_scipy(tmp_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"


def test_dependency_floors():
    # src/ calls np.vecdot (numpy 2.0) and np.matvec (numpy 2.2); scipy 1.13
    # is the first release that supports numpy 2
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    deps = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    assert re.findall(r'"([^"]+)"', deps) == ["numpy>=2.2", "scipy>=1.13"]
