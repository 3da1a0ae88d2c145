"""Engine selection through :func:`repro.analysis.cache.cached_explore`.

The dense-array ``"vectorized"`` engine is gone; the scalar oracle and
the batched frontier engine are the only engines.  These checks pin
that a former or unknown engine name is refused and that the
symmetry reduction still demands the batched engine.
"""

from __future__ import annotations

import pytest

from repro.analysis.cache import ENGINES, cached_explore
from repro.channels import DuplicatingChannel
from repro.kernel.system import System
from repro.protocols.norepeat import norepeat_protocol


def build_system(input_sequence=("a", "b")):
    domain = tuple(sorted(set(input_sequence))) or ("a",)
    sender, receiver = norepeat_protocol(domain)
    return System(
        sender,
        receiver,
        DuplicatingChannel(),
        DuplicatingChannel(),
        tuple(input_sequence),
    )


class TestCacheWiring:
    def test_unknown_engine_is_rejected(self):
        assert ENGINES == ("scalar", "batched")
        for engine in ("gpu", "vectorized"):
            with pytest.raises(ValueError, match="engine"):
                cached_explore(build_system(), engine=engine)

    def test_reduce_requires_batched(self):
        with pytest.raises(ValueError, match="reduce"):
            cached_explore(build_system(), engine="scalar", reduce=True)
        reduced = cached_explore(build_system(), engine="batched", reduce=True)
        assert reduced.all_safe
