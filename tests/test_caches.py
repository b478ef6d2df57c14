"""Every lru_cache in the package is bounded."""

import importlib
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
                    yield f"{module.__name__}.{name}", func.cache_parameters()


def test_every_lru_cache_has_an_integer_maxsize():
    found = dict(cached_functions())
    assert "coxforge.section_spaces._generators" in found
    for name, params in found.items():
        assert isinstance(params["maxsize"], int), name
