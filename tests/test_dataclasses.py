import dataclasses
import importlib
import inspect
import pkgutil

import tmcda


def test_every_dataclass_in_the_package_is_frozen():
    """Fitted models, results and settings are values: none is filled in after it is built."""
    checked, thawed = [], []
    for info in pkgutil.iter_modules(tmcda.__path__):
        module = importlib.import_module(f"tmcda.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                checked.append(f"{module.__name__}.{name}")
                if not cls.__dataclass_params__.frozen:
                    thawed.append(checked[-1])
    assert "tmcda.tree.RegressionTree" in checked and "tmcda.itml.ITMLResult" in checked
    assert thawed == []
