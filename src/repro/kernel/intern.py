"""Compact state interning (collapse compression) for state-space engines.

The scalar explorer -- the object-graph oracle every fast path is
differentially tested against -- visits up to millions of global
configurations.  Keeping every :class:`~repro.kernel.system.Configuration`
object alive in a visited structure costs hundreds of bytes per state (a
dataclass, its ``__dict__``, and the object graphs of two channel states
and the output tape).  :class:`ConfigurationInterner` applies
collapse-style compression (the technique model checkers like SPIN use):
each of a configuration's five components -- sender state, receiver
state, the two channel states, and the output tape -- is interned once
into a per-component table, and a configuration's canonical *byte key* is
the fixed-width packed tuple of its five component ids.

Why this is both exact and fast:

* two configurations are equal iff their five components are pairwise
  equal, iff they receive identical component ids, iff their packed byte
  keys are equal -- component tables are ordinary dicts, so equality is
  Python's own ``==`` (no dependence on set iteration order or on any
  hand-rolled serialization being injective);
* components are shared massively across states (the reachable space is
  close to a cross product of per-component spaces), so the tables stay
  tiny relative to the state count and each distinct component object is
  retained exactly once;
* the per-state footprint of the visited set is one 20-byte key plus a
  dense integer id, independent of how large the configuration is.

It serves the scalar oracle (:func:`repro.verify.explorer.explore`) and
the state-count metrics (:mod:`repro.analysis.metrics`,
:mod:`repro.experiments.f2_boundedness`).  The compiled kernel
(:mod:`repro.kernel.compiled`) does not use it: it interns the same five
components itself, but reaches successor ids through memoised component
transitions instead of keying whole configurations.  The module lives in
the kernel because it depends only on
:class:`~repro.kernel.system.Configuration`;
:mod:`repro.verify.intern` re-exports it for existing importers.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

from repro.kernel.system import Configuration

_PACK = struct.Struct(">5I")


class ConfigurationInterner:
    """Dense integer ids for configurations, via per-component collapse.

    Ids are assigned in discovery order, so BFS layers map to contiguous
    id ranges and parent links always point backwards.
    """

    __slots__ = ("_components", "_ids")

    def __init__(self) -> None:
        # One table per Configuration field: value -> small id.
        self._components: Tuple[Dict, ...] = ({}, {}, {}, {}, {})
        self._ids: Dict[bytes, int] = {}

    def key(self, config: Configuration) -> bytes:
        """The canonical 20-byte key of ``config`` (interns components)."""
        ids = []
        for table, part in zip(
            self._components,
            (
                config.sender_state,
                config.receiver_state,
                config.chan_sr,
                config.chan_rs,
                config.output,
            ),
        ):
            part_id = table.get(part)
            if part_id is None:
                part_id = len(table)
                table[part] = part_id
            ids.append(part_id)
        return _PACK.pack(*ids)

    def intern(self, config: Configuration) -> Optional[int]:
        """Assign the next dense id to ``config``; None if already seen."""
        key = self.key(config)
        if key in self._ids:
            return None
        new_id = len(self._ids)
        self._ids[key] = new_id
        return new_id

    def ensure(self, config: Configuration) -> Tuple[int, bool]:
        """The dense id of ``config`` plus whether it was newly assigned.

        Unlike :meth:`intern` this also resolves already-seen
        configurations to their existing id.
        """
        key = self.key(config)
        existing = self._ids.get(key)
        if existing is not None:
            return existing, False
        new_id = len(self._ids)
        self._ids[key] = new_id
        return new_id, True

    def __contains__(self, config: Configuration) -> bool:
        return self.key(config) in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def component_counts(self) -> Tuple[int, ...]:
        """Distinct (sender, receiver, chan_sr, chan_rs, output) counts."""
        return tuple(len(table) for table in self._components)
