"""The package namespace is built from the modules' own `__all__` lists:
`photonstats.__all__` is `__version__` followed by each list in turn, and
every name in it is the object its module defines."""

import importlib

import photonstats

MODULES = ["errors", "states", "montecarlo", "scatter", "coherence", "sensing", "imaging", "pgm"]


def _module(name):
    return importlib.import_module(f"photonstats.{name}")


def test_every_module_lists_its_public_names():
    for name in MODULES:
        assert isinstance(_module(name).__all__, list), name


def test_the_package_exports_each_module_list_in_order():
    assert photonstats.__all__ == ["__version__"] + [n for m in MODULES for n in _module(m).__all__]


def test_no_two_modules_export_the_same_name():
    # a star import shadows a clashing name silently
    assert len(set(photonstats.__all__)) == len(photonstats.__all__)


def test_each_package_name_is_its_module_object():
    for name in MODULES:
        module = _module(name)
        for public in module.__all__:
            assert getattr(photonstats, public) is getattr(module, public), f"{name}.{public}"
