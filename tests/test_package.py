"""The package namespace: public names and submodules load on first access."""

import subprocess
import sys

import pytest

import popgames
from popgames import core, verify

SUBMODULES = ("_kernels", "cli", "core", "formats", "games", "library", "pavcheck", "sim",
              "verify")


def fresh(code: str) -> str:
    """Run `code` in a new interpreter; its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_public_name_is_its_defining_modules_object():
    modules = [getattr(popgames, name) for name in SUBMODULES]
    for name in popgames.__all__:
        value = getattr(popgames, name)
        defined = getattr(value, "__module__", "")
        if defined.startswith("popgames."):  # classes and functions
            assert getattr(sys.modules[defined], name) is value, name
        else:  # constants and aliases
            assert any(vars(module).get(name, module) is value for module in modules), name


def test_dir_lists_every_public_name_and_submodule():
    listed = dir(popgames)
    assert set(popgames.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    assert "__version__" in listed


def test_submodules_and_names_resolve_without_an_explicit_import():
    out = fresh(
        "import sys, popgames\n"
        "print(popgames.sim is sys.modules['popgames.sim'], popgames.sim.run is popgames.run)\n"
        "from popgames import verify\n"
        "print(verify is sys.modules['popgames.verify'],"
        " popgames.stably_computes is verify.stably_computes)\n"
        "print(popgames.cli.main is sys.modules['popgames.cli'].main)\n"
    )
    assert out.split() == ["True"] * 5


def test_star_import_binds_every_public_name():
    out = fresh(
        "namespace = {}\n"
        "exec('from popgames import *', namespace)\n"
        "import popgames\n"
        "print(sorted(k for k in namespace if k != '__builtins__') == sorted(popgames.__all__))\n"
        "print(all(namespace[k] is getattr(popgames, k) for k in popgames.__all__))\n"
    )
    assert out.split() == ["True", "True"]


def test_an_unknown_attribute_raises_attribute_error():
    for module in (popgames, popgames.cli):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            getattr(module, "no_such_name")
        assert not hasattr(module, "no_such_name")
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from popgames import no_such_name", {})


def test_budget_exceeded_is_one_class():
    assert core.BudgetExceeded is verify.BudgetExceeded is popgames.BudgetExceeded
