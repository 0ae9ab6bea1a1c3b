import importlib

import hyperphase

SUBMODULES = ("hypergraph", "hyperstate", "phasemap", "wigner")


def test_package_exports_are_the_submodule_exports():
    modules = [importlib.import_module(f"hyperphase.{name}") for name in SUBMODULES]
    union = {name for module in modules for name in module.__all__}
    assert len(hyperphase.__all__) == len(set(hyperphase.__all__))
    assert set(hyperphase.__all__) == union
    for module in modules:
        for name in module.__all__:
            assert getattr(hyperphase, name) is getattr(module, name), f"{module.__name__}.{name}"
    # the benchmark tracer looks up every __all__ name, so a stale entry would crash it
    for module in modules + [importlib.import_module(f"hyperphase.{n}") for n in ("cli", "formats")]:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
