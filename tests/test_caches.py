"""Every lru_cache in the package is bounded, and none is keyed on a
configuration: a `PointConfig` keeps its own memos."""

import importlib
import inspect
import pkgutil

import coxforge


def cached_functions():
    for info in pkgutil.iter_modules(coxforge.__path__):
        module = importlib.import_module(f"coxforge.{info.name}")
        holders = [module] + [v for v in vars(module).values()
                              if isinstance(v, type) and v.__module__ == module.__name__]
        for holder in holders:
            for name, value in vars(holder).items():
                func = getattr(value, "__func__", value)
                if hasattr(func, "cache_parameters") and func.__module__ == module.__name__:
                    yield f"{module.__name__}.{name}", func


def test_every_lru_cache_has_an_integer_maxsize():
    found = dict(cached_functions())
    assert "coxforge.section_spaces.monomial_exponents" in found
    for name, func in found.items():
        assert isinstance(func.cache_parameters()["maxsize"], int), name


def test_no_lru_cache_is_keyed_on_a_configuration():
    for name, func in cached_functions():
        annotations = [getattr(p.annotation, "__name__", p.annotation)
                       for p in inspect.signature(func).parameters.values()]
        assert "PointConfig" not in annotations, name
