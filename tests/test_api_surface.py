"""The public names resolve: every module's __all__, and the package
star-import that README's quick start runs."""

import importlib
import pathlib
import pkgutil
import re

import rigidwitt

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_all_entry_resolves():
    checked = 0
    for info in pkgutil.iter_modules(rigidwitt.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"rigidwitt.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
            checked += 1
    assert checked


def test_readme_quick_start_runs():
    code = re.search(r"```python\n(.*?)```", README.read_text(), re.S)[1]
    assert "from rigidwitt import *" in code
    namespace: dict = {}
    exec(code, namespace)
    assert namespace["k"] == 1 and namespace["cert"].verify()
