import importlib
import pkgutil

import pytest

import swelab

MODULES = sorted(m.name for m in pkgutil.iter_modules(swelab.__path__, "swelab."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # the benchmark's tracer wraps each name in __all__ with getattr, so a
    # stale entry would break every traced run
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
