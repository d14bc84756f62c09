"""A package façade that resolves its public names on first use (PEP 562).

A package ``__init__`` that imports every submodule makes importing any
one of them load them all.  The façade keeps one table, public name ->
defining submodule, and imports that submodule when the name is first
read, so ``import repro.serve.shard`` loads the shard and what it
imports, not the whole serving tier::

    _EXPORTS = {"EAGrServer": "server", ...}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = facade(globals(), _EXPORTS)

``from package import Name``, ``package.Name`` and ``import *`` resolve
through the module ``__getattr__``; a resolved name is cached in the
package namespace, so the hook runs once per name.
"""

from importlib import import_module


def facade(namespace, exports):
    """The module ``__getattr__`` and ``__dir__`` of a lazy package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    public name to the submodule (relative to the package) defining it.
    An unknown name raises ``AttributeError`` naming the package, as a
    missing module attribute does.
    """
    package = namespace["__name__"]

    def __getattr__(name):
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
