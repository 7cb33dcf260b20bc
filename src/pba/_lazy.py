"""numpy and scipy's special functions, loaded on first use rather than when ``pba`` is imported.

``pba pbox``, ``pba --help`` and a config that fails at load never compute
with numpy, and its import is a large share of their start-up.  ``np`` is the
module already in ``sys.modules`` if numpy was imported before ``pba``;
otherwise it is registered there as an ``importlib.util.LazyLoader`` module,
which runs numpy's import on first touch.  A missing numpy still raises
``ModuleNotFoundError`` here, at import time.  Before Python 3.12 that first
touch is not thread-safe; ``pba`` runs single-threaded.

``special_ufuncs()`` loads scipy's compiled special-function module on the
first gamma or beta draw, without the ``scipy.special`` package around it:
that package's ``__init__`` builds an array-API copy of numpy (loading
``numpy.f2py`` and ``numpy.testing``) and takes about ten times as long as
the compiled module.  For the load, a bare stand-in package is swapped into
``sys.modules["scipy.special"]`` and taken out again, so this, like the
numpy loader, is not thread-safe.
"""

import functools
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


@functools.cache
def special_ufuncs():
    """A module holding scipy's ``betaincinv`` and ``gammaincinv`` ufuncs.

    ``scipy.special`` itself if it is already imported; otherwise
    ``scipy.special._ufuncs``, loaded under a stand-in parent package that is
    removed again afterwards.  The compiled modules stay loaded, and a later
    ``import scipy.special`` reuses them, so both paths give the same ufunc
    objects.
    """
    name = "scipy.special"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    stand_in = types.ModuleType(name)
    stand_in.__path__ = spec.submodule_search_locations
    sys.modules[name] = stand_in
    try:
        return importlib.import_module(f"{name}._ufuncs")
    finally:
        if sys.modules.get(name) is stand_in:
            del sys.modules[name]
