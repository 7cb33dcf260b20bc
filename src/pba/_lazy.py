"""numpy, and the compiled scipy modules a gamma or beta draw calls, loaded on first use.

``pba pbox``, ``pba --help`` and a config that fails at load never compute
with numpy, and its import is a large share of their start-up.  ``np`` is the
module already in ``sys.modules`` if numpy was imported before ``pba``;
otherwise it is registered there as an ``importlib.util.LazyLoader`` module,
which runs numpy's import on first touch.  A missing numpy still raises
``ModuleNotFoundError`` here, at import time.  Before Python 3.12 that first
touch is not thread-safe; ``pba`` runs single-threaded.

A quantile draw names two ufuncs, each bound here on its first use (PEP 562):
``gammaincinv`` from ``scipy.special._special_ufuncs`` (from ``_ufuncs`` on
a scipy that lacks it there) and ``betaincinv`` from
``scipy.special._ufuncs``.  ``compiled`` imports such a module without the
package around it, if that package is not yet imported: ``scipy.special``'s
``__init__`` builds an array-API copy of numpy (loading ``numpy.f2py`` and
``numpy.testing``) and takes about ten times as long as the compiled
modules.  ``_special_ufuncs`` in turn spares a gamma draw ``_ufuncs``, which
also loads ``_ellip_harm_2`` and scipy's own OpenBLAS, about 2.6 MiB
resident.  For the load, a bare stand-in package is swapped into
``sys.modules`` and taken out again, so this, like the numpy loader, is not
thread-safe.  ``numpy`` and ``scipy`` themselves are always imported for
real.  The uniforms come from ``pba._pcg``, not ``numpy.random``.

A package already imported is used as it is.  Either way the ufuncs are the
package's own, so quantiles are the same bit for bit.  The compiled modules
stay loaded, and a later ``import scipy.special`` reuses them and works, but
leaves them unbound as attributes of the package: after ``pba`` draws first,
``scipy.special._special_ufuncs`` raises ``AttributeError`` (the names it
defines, such as ``scipy.special.gammaincinv``, are bound).
"""

import importlib
import importlib.util
import sys
import types


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")


def compiled(name: str):
    """The module ``name``, a compiled submodule of a package such as
    ``scipy.special``, loaded without that package's ``__init__`` unless the
    package is already imported.

    Such a load puts a stand-in for the package, with its ``__path__``, in
    ``sys.modules`` and removes it again afterwards.
    """
    package = name.rpartition(".")[0]
    # Finding the package imports its parent for real, and that may import the package.
    spec = importlib.util.find_spec(package)
    if package in sys.modules:
        return importlib.import_module(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {package!r}", name=package)
    stand_in = types.ModuleType(package)
    stand_in.__path__ = spec.submodule_search_locations
    sys.modules[package] = stand_in
    try:
        return importlib.import_module(name)
    finally:
        if sys.modules.get(package) is stand_in:
            del sys.modules[package]


# The compiled modules that may define each name, in the order tried.
_COMPILED = {
    "gammaincinv": ("scipy.special._special_ufuncs", "scipy.special._ufuncs"),
    "betaincinv": ("scipy.special._ufuncs",),
}


def __getattr__(name: str):
    modules = _COMPILED.get(name)
    if modules is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module in modules:
        try:
            value = getattr(compiled(module), name)
        except (AttributeError, ModuleNotFoundError):
            if module == modules[-1]:
                raise
        else:
            globals()[name] = value
            return value
