"""Public-API integrity: exports, docstrings, version."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.density",
    "repro.geometry",
    "repro.data",
    "repro.interaction",
    "repro.analysis",
    "repro.baselines",
    "repro.viz",
]


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        """Every name in __all__ actually exists in the package."""
        package = importlib.import_module(package_name)
        exported = getattr(package, "__all__", [])
        assert exported, f"{package_name} has no __all__"
        for name in exported:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_no_duplicate_exports(self, package_name):
        package = importlib.import_module(package_name)
        exported = getattr(package, "__all__", [])
        assert len(exported) == len(set(exported))

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


class TestDocstrings:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_public_objects_documented(self, package_name):
        """Every exported class and function carries a docstring."""
        package = importlib.import_module(package_name)
        undocumented = []
        for name in getattr(package, "__all__", []):
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert not undocumented, f"{package_name}: {undocumented}"

    def test_public_methods_documented(self):
        """Methods of the flagship classes are documented."""
        from repro import InteractiveNNSearch, Subspace
        from repro.density import DensityGrid, KernelDensityEstimator

        for cls in (InteractiveNNSearch, Subspace, DensityGrid,
                    KernelDensityEstimator):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_") or not callable(member):
                    continue
                assert (member.__doc__ or "").strip(), f"{cls.__name__}.{name}"


class TestModuleDocstrings:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_package_docstring(self, package_name):
        package = importlib.import_module(package_name)
        assert (package.__doc__ or "").strip()


class TestDeclaredDependencies:
    def test_every_module_imports_without_networkx(self):
        """pyproject.toml declares numpy and scipy only; nothing else is
        needed to import any ``repro`` module."""
        code = (
            "import importlib, pkgutil, sys\n"
            "sys.modules['networkx'] = None\n"
            "import repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    importlib.import_module(info.name)\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
