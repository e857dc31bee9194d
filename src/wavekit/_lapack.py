"""SciPy's compiled LAPACK wrappers, loaded without ``scipy.linalg``.

The eigensolves call three LAPACK routines: ``dsbevx``, ``dgbsv`` and
``dlamch``. ``import scipy.linalg`` would also load its array-API layer
(``numpy.testing``, ``numpy.f2py``, ``unittest``, ``email``), which costs
more CPU and memory than the solves of a short run. This module loads
SciPy's ``_flapack`` extension on its own: the same compiled routines,
called with the same arguments, give the same bits.

Import it where a routine is first needed (see ``numgrid``): the import
lock then makes the first load safe from the sweep's worker threads.
"""

import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

_NAME = "scipy.linalg._flapack"


def _load():
    """SciPy's ``_flapack``, found by path without running the
    ``__init__`` of ``scipy`` or ``scipy.linalg``."""
    if _NAME in sys.modules:  # scipy.linalg is loaded already
        return sys.modules[_NAME]
    path = None
    for name in ("scipy", "scipy.linalg", _NAME):
        spec = PathFinder.find_spec(name, path)
        if spec is None:
            raise ModuleNotFoundError(f"no module named {name!r}", name=name)
        path = spec.submodule_search_locations
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    # A single-phase extension enters itself in sys.modules. Taken out, a
    # later ``import scipy.linalg`` loads it as its own submodule and binds
    # the attribute ``scipy.linalg._flapack``.
    if "scipy.linalg" not in sys.modules:
        sys.modules.pop(_NAME, None)
    return module


_flapack = _load()
dsbevx = _flapack.dsbevx
dgbsv = _flapack.dgbsv
#: The absolute tolerance that ``scipy.linalg.eig_banded`` gives dsbevx.
ABSTOL = 2 * _flapack.dlamch("s")
