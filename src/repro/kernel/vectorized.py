"""Array-backend probe kept for the cold benchmark's imports.

The dense-array explore engine that lived here is gone; the batched
engine (:mod:`repro.kernel.frontier`) is the one fast engine beside the
scalar oracle.  This module exists only because ``perfbench/rep.py``
imports it during family-cold set-up and ``perfbench/run.py`` records
:func:`vectorized_backend` (re-exported by :mod:`repro.verify`) as
provenance.  Drop it with the next change to the benchmark.
"""

from __future__ import annotations


def vectorized_backend() -> str:
    """``"numpy"`` when numpy is importable, else ``"python"``."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return "python"
    return "numpy"
