"""Backend selection for the hot decoder kernel.

The compiled extension is used when it imported cleanly; otherwise the
NumPy fallback takes over.  Set ``GDSTBC_PURE_PYTHON=1`` in the
environment to force the fallback (useful for benchmarking and testing).

Only the NumPy kernel has the scaled-unitary form (the ``scales``
argument of ``_kernels_py.metric_scan``), so under the compiled backend a
call that passes ``scales`` is routed to it; other calls go to the
compiled scan.
"""

import os

from . import _kernels_py

if os.environ.get("GDSTBC_PURE_PYTHON"):
    _impl = _kernels_py
    BACKEND = "python"
else:
    try:
        from . import _ckernels as _impl

        BACKEND = "compiled"
    except ImportError:
        _impl = _kernels_py
        BACKEND = "python"

if _impl is _kernels_py:
    metric_scan = _kernels_py.metric_scan
else:
    _compiled_scan = _impl.metric_scan

    def metric_scan(stack, r_prev, r_t, inv_a, scales=None):
        """The compiled scan, or the NumPy scaled-unitary one given ``scales``."""
        if scales is None:
            return _compiled_scan(stack, r_prev, r_t, inv_a)
        return _kernels_py.metric_scan(stack, r_prev, r_t, inv_a, scales)


def compiled_available() -> bool:
    try:
        from . import _ckernels  # noqa: F401
    except ImportError:
        return False
    return True
