import importlib
import pkgutil
import re
from pathlib import Path

import ustatboot

# imported by name, so pytest sees them here: a public name starting with
# test or Test is collected unless it carries __test__ = False
from ustatboot import TestResult, test_covariance, test_kendall, test_ustat_mean  # noqa: F401

README = Path(__file__).resolve().parents[1] / "README.md"


def _modules():
    names = [ustatboot.__name__] + [
        info.name
        for info in pkgutil.walk_packages(ustatboot.__path__, ustatboot.__name__ + ".")
    ]
    return [importlib.import_module(name) for name in names]


def test_every_module_export_resolves():
    modules = _modules()
    assert "ustatboot.gaussian_approx" in [m.__name__ for m in modules]
    for module in modules:
        exports = getattr(module, "__all__", [])
        missing = [attr for attr in exports if not hasattr(module, attr)]
        assert not missing, f"{module.__name__}.__all__ lists undefined names {missing}"


def test_package_exports_are_its_modules_exports_once():
    # one list: the package's __all__ is its modules' own __all__ lists
    exports = ustatboot.__all__
    assert len(set(exports)) == len(exports)
    assert exports == ["__version__"] + [
        name for module in ustatboot._MODULES for name in module.__all__
    ]
    for name in exports[1:]:
        home = next(m for m in ustatboot._MODULES if name in m.__all__)
        assert getattr(ustatboot, name) is getattr(home, name)


def _readme_api():
    """{module name: [names]} from the bullets of README's "API" section."""
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## API\n(.*?)(?=^## )", text, re.S | re.M).group(1)
    listed = {}
    for bullet in re.split(r"^- ", section, flags=re.M)[1:]:
        module, *names = re.findall(r"`([^`]+)`", bullet)
        listed[module] = names
    return listed


def test_readme_api_section_lists_every_export():
    # every module with an __all__ has one bullet in README's "API" section
    # that names exactly its exports, in order
    expected = {
        m.__name__: list(m.__all__) for m in _modules()[1:] if hasattr(m, "__all__")
    }
    assert _readme_api() == expected


def test_public_test_names_are_not_collected():
    # every module's public names, which ``from ustatboot import *`` and
    # imports by name bring into a test module
    named = [
        (module, name)
        for module in _modules()
        for name in getattr(module, "__all__", [])
        if name.startswith(("test", "Test"))
    ]
    assert (ustatboot.inference, "TestResult") in named
    for module, name in named:
        assert vars(getattr(module, name)).get("__test__") is False, (module, name)
