"""What a one-shot command loads, and the lazy package exports behind it.

Each cold ``promising-arm`` process compiles every module it imports, so
``run`` and ``catalogue`` must load only the code they execute.  The
pins run each command in a fresh interpreter and read ``sys.modules``.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Packages whose ``__init__`` resolves each export on first access.
LAZY_PACKAGES = ("repro.harness", "repro.litmus", "repro.isa", "repro.promising")


def loaded_after(argv: list[str]) -> set[str]:
    """The modules a fresh interpreter holds after ``main(argv)``."""
    script = (
        "import contextlib, io, json, sys\n"
        "from repro.tools.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    return set(modules)


def loaded(modules: set[str], names: list[str]) -> list[str]:
    """The entries of ``names`` that ``modules`` holds, or a submodule of."""
    return [
        name
        for name in names
        if any(module == name or module.startswith(name + ".") for module in modules)
    ]


def test_run_loads_only_the_promising_path():
    modules = loaded_after(["run", "--test", "MP"])
    assert "repro.backend.packed" in modules  # it did explore
    unused = [
        "repro.flat",
        "repro.axiomatic",
        "repro.harness.scheduler",
        "repro.harness.fuzz",
        "repro.harness.cache",
        "repro.harness.report",
        "repro.litmus.cycles",
        "repro.litmus.synth",
        "repro.litmus.runner",
        "repro.litmus.format",
        "repro.isa.assembler",
        "repro.isa.armv8",
        "repro.isa.riscv",
        "repro.isa.ir",
        "repro.promising.interactive",
        "repro.service",
        "repro.distrib",
        "multiprocessing",
        "uuid",
    ]
    assert loaded(modules, unused) == []


def test_run_axiomatic_loads_the_axiomatic_model_and_no_more_than_it_needs():
    modules = loaded_after(["run", "--test", "MP", "--axiomatic"])
    assert "repro.axiomatic.model" in modules
    unused = [
        "repro.service",
        "repro.distrib",
        "repro.litmus.format",
        "repro.isa.assembler",
        "repro.promising.interactive",
        "uuid",
    ]
    assert loaded(modules, unused) == []


def test_catalogue_loads_no_model():
    modules = loaded_after(["catalogue"])
    assert "repro.litmus.catalogue" in modules
    assert loaded(modules, ["repro.promising", "repro.harness", "repro.backend"]) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_is_the_object_its_submodule_defines(package):
    module = importlib.import_module(package)
    origin = {name: sub for sub, names in module._EXPORTS.items() for name in names}
    assert sorted(module.__all__) == sorted(origin)
    for name in module.__all__:
        defining = importlib.import_module(f"{package}.{origin[name]}")
        assert getattr(module, name) is vars(defining)[name], name
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_binds_every_export(package):
    module = importlib.import_module(package)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(module.__all__)
    assert all(namespace[name] is getattr(module, name) for name in module.__all__)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_an_unknown_name_is_an_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


def test_from_import_still_reaches_a_submodule():
    from repro.litmus import synth

    assert synth is sys.modules["repro.litmus.synth"]
