import ast
import importlib
import pathlib

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


def test_every_public_name_is_used_by_the_library():
    # surface that no library module loads (as a Name or an Attribute) is
    # used only by tests, if at all; qapprox/__init__ re-exports, so it does
    # not count
    package = pathlib.Path(qapprox.__file__).parent
    loaded = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = [
        f"{layer}.{name}"
        for layer in LAYERS
        for name in importlib.import_module(f"qapprox.{layer}").__all__
        if name not in loaded
    ]
    assert not unused, f"public names no library module uses: {unused}"
