"""The kernel binding the exact-counting modules call through.

There is one kernel implementation, ``_series_py``.  This module stays as a
fixed binding because the public ``tcore.BACKEND`` string and external tracers
(which wrap the functions of ``backend.kernels``) read it.
"""

from . import _series_py as kernels

BACKEND = "python"
