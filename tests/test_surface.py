import importlib

import qapprox

# The library's layers; a per-layer tracer wraps getattr(layer, name) for
# every name in each layer's __all__, so a stale entry breaks tracing.
LAYERS = ("qcore", "appell", "operators", "analysis", "statconv")


def test_public_surface_is_consistent():
    modules = {f"qapprox.{name}": importlib.import_module(f"qapprox.{name}") for name in LAYERS}
    for path, mod in modules.items():
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"{path}.__all__ names missing attributes: {missing}"
    for name in dir(qapprox):
        obj = getattr(qapprox, name)
        home = getattr(obj, "__module__", None)
        if callable(obj) and home in modules:
            assert name in modules[home].__all__, f"qapprox.{name} is not in {home}.__all__"
