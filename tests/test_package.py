import importlib
import pkgutil

import ustatboot


def test_every_module_export_resolves():
    names = [ustatboot.__name__] + [
        info.name
        for info in pkgutil.walk_packages(ustatboot.__path__, ustatboot.__name__ + ".")
    ]
    assert "ustatboot.gaussian_approx" in names
    for name in names:
        module = importlib.import_module(name)
        exports = getattr(module, "__all__", [])
        missing = [attr for attr in exports if not hasattr(module, attr)]
        assert not missing, f"{name}.__all__ lists undefined names {missing}"
