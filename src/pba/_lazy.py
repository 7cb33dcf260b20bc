"""numpy, loaded on its first attribute access rather than when ``pba`` is imported.

``pba pbox``, ``pba --help`` and a config that fails at load never compute
with numpy, and its import is a large share of their start-up.  ``np`` is the
module already in ``sys.modules`` if numpy was imported before ``pba``;
otherwise it is registered there as an ``importlib.util.LazyLoader`` module,
which runs numpy's import on first touch.  A missing numpy still raises
``ModuleNotFoundError`` here, at import time.  Before Python 3.12 that first
touch is not thread-safe; ``pba`` runs single-threaded.
"""

import importlib.util
import sys


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
