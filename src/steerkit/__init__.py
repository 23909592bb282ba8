"""Gaussian steering analysis for a two-cavity/one-mechanical-mode transducer.

The package follows one pipeline: physical rates (:class:`SystemParams`)
-> moment dynamics and steady states (:mod:`steerkit.dynamics`) ->
steering/entanglement criteria (:mod:`steerkit.steering`), with the
composite squeezed-mode picture (:mod:`steerkit.squeezed`), output-field
spectra (:mod:`steerkit.spectra`) and parameter sweeps
(:mod:`steerkit.sweep`) layered on top.  The ``steerkit`` command exposes
the same operations on INI scenario files.

Every module's ``__all__`` is re-exported here, and the package's
``__all__`` is their concatenation, so each public name is listed once, in
the module that defines it.
"""
from __future__ import annotations

__version__ = "0.1.0"

from . import config, dynamics, errors, figures, params, spectra, squeezed, steering, sweep
from .config import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .figures import *  # noqa: F401,F403
from .params import *  # noqa: F401,F403
from .spectra import *  # noqa: F401,F403
from .squeezed import *  # noqa: F401,F403
from .steering import *  # noqa: F401,F403
from .sweep import *  # noqa: F401,F403

__all__ = [
    *params.__all__,
    *dynamics.__all__,
    *steering.__all__,
    *squeezed.__all__,
    *spectra.__all__,
    *sweep.__all__,
    *config.__all__,
    *figures.__all__,
    *errors.__all__,
]
