"""Tests for the public package surface, the exception hierarchy, and the
absence of dead code under ``src/``."""

import ast
import functools
import os
import re
import subprocess
import sys

import pytest

import repro
from repro import exceptions

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The code that may reference a ``src/`` definition.  ``tests/`` is not
#: among it: a definition only a test calls is test code, and belongs in
#: ``tests/``.
_SCANNED = ("src", "benchmarks", "examples", "scripts", "perfbench")

#: Methods that the stdlib calls by name, never this code: pickle's
#: ``reducer_override`` / ``find_class`` hooks.
_HOOKS = frozenset({"reducer_override", "find_class"})

#: A string naming code, such as ``"CostModel.prewarm"`` or
#: ``"repro.cli:main"`` (perfbench and monkeypatch name callables this way).
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*\Z")


class TestPublicApi:
    def test_version_string(self):
        assert repro.__version__ == "1.30.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            assert hasattr(repro, name), f"missing export {name}"

    def test_persistent_cost_cache_is_not_exported(self):
        assert "PersistentCostCache" not in repro.__all__
        assert not hasattr(repro, "PersistentCostCache")

    def test_headline_entry_points_importable(self):
        assert callable(repro.evaluate_design)
        assert callable(repro.workload_by_name)
        assert callable(repro.accelerator_class)
        assert repro.HeraldDSE is not None


class TestExceptions:
    ALL = [
        exceptions.LayerDefinitionError,
        exceptions.GraphError,
        exceptions.MappingError,
        exceptions.HardwareConfigError,
        exceptions.PartitionError,
        exceptions.SchedulingError,
        exceptions.WorkloadError,
        exceptions.SearchError,
    ]

    @pytest.mark.parametrize("exc", ALL)
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, exceptions.ReproError)

    def test_repro_error_is_an_exception(self):
        assert issubclass(exceptions.ReproError, Exception)

    def test_catching_base_catches_derived(self):
        with pytest.raises(exceptions.ReproError):
            raise exceptions.SchedulingError("boom")


def _python_files(top):
    for directory, _, names in sorted(os.walk(os.path.join(_ROOT, top))):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


@functools.lru_cache(maxsize=None)
def _parse(path):
    with open(path, "r", encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def _uses(tree):
    """``(name, line)`` for each use of a name in ``tree``: a load, an
    attribute access, or a part of a dotted string.  Docstrings and
    ``__all__`` entries name things without using them."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                skipped.add(id(node.body[0].value))
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            skipped.update(id(sub) for sub in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skipped and _DOTTED.match(node.value)):
            for part in re.split(r"[.:]", node.value):
                yield part, node.lineno


class TestNoDeadCode:
    """A name-based AST scan of ``src/``.  It matches names, not bindings,
    so a definition sharing its name with a used one passes: the scan can
    miss dead code, but it never flags live code."""

    def test_no_module_imports_a_name_it_never_uses(self):
        unused = []
        for path in _python_files("src"):
            if os.path.basename(path) == "__init__.py":
                continue  # package modules import to re-export
            tree = _parse(path)
            used = {name for name, _ in _uses(tree)}
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                        isinstance(node, ast.ImportFrom)
                        and node.module == "__future__"):
                    continue
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{os.path.relpath(path, _ROOT)}:"
                                      f"{node.lineno}: {bound}")
        assert unused == []

    def test_every_definition_is_referenced_outside_its_body(self):
        uses = {}
        for top in _SCANNED:
            for path in _python_files(top):
                for name, line in _uses(_parse(path)):
                    uses.setdefault(name, []).append((path, line))
        unreferenced = []
        for path in _python_files("src"):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef)):
                    continue
                name = node.name
                if name in _HOOKS or (name.startswith("__")
                                      and name.endswith("__")):
                    continue
                first = min([node.lineno]
                            + [decorator.lineno
                               for decorator in node.decorator_list])
                if not any(use_path != path
                           or not first <= line <= node.end_lineno
                           for use_path, line in uses.get(name, ())):
                    unreferenced.append(f"{os.path.relpath(path, _ROOT)}:"
                                        f"{node.lineno}: {name}")
        assert unreferenced == []


class TestImportCost:
    """``import repro.cli`` generates no code at run time: records are
    tuples or plain classes, never ``@dataclass`` (whose class creation
    costs more than a third of the import and loads ``inspect``)."""

    def test_no_module_imports_dataclasses(self):
        offenders = []
        for path in _python_files("src"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module]
                else:
                    continue
                if "dataclasses" in modules:
                    offenders.append(f"{os.path.relpath(path, _ROOT)}:"
                                     f"{node.lineno}")
        assert offenders == []

    def test_cli_import_loads_neither_dataclasses_nor_inspect(self):
        script = ("import sys\n"
                  "import repro.cli\n"
                  "print('loaded:', sorted(name for name in ('dataclasses', "
                  "'inspect') if name in sys.modules))\n")
        env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.splitlines()[-1] == "loaded: []"
