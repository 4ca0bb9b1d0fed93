import importlib
import pkgutil

import nctest


def test_every_listed_name_resolves_once():
    # a deleted function must not stay listed in an __all__
    submodules = [
        importlib.import_module(f"nctest.{info.name}")
        for info in pkgutil.iter_modules(nctest.__path__)
    ]
    listed = [module for module in [nctest] + submodules if hasattr(module, "__all__")]
    assert {"nctest", "nctest.localfdr", "nctest.stepup"} <= {m.__name__ for m in listed}
    for module in listed:
        names = list(module.__all__)
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
