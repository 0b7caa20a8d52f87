"""Every public annotation resolves.

The modules use postponed evaluation of annotations, so a name that is
annotated but never imported only fails when something asks for the hints
(``typing.get_type_hints``, documentation tools, dataclass introspection).
"""

import importlib
import inspect
import typing
from functools import cached_property

MODULES = ("analysis", "commutant", "core", "inner", "invariant", "jsonio", "shifts", "suite")


def _public_callables():
    for mod_name in MODULES:
        module = importlib.import_module(f"hardy_perturb.{mod_name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                yield f"{mod_name}.{name}", obj
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, cached_property):
                        member = member.func
                    elif isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{mod_name}.{name}.{attr}", member
            elif inspect.isfunction(obj):
                yield f"{mod_name}.{name}", obj


def test_public_type_hints_resolve():
    broken = {}
    for name, obj in _public_callables():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            broken[name] = str(exc)
    assert broken == {}
