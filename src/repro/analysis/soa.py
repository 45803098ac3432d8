"""Struct-of-arrays state for streaming detectors.

The streaming analysis plane consumes whole synchronized sweeps
(27,648-component batches at Trinity scale), so per-series detector
state must be addressable as arrays, not as one Python object per
series.  :class:`ComponentTable` mirrors the
:class:`~repro.cluster.node.NodeStore` design: a ``component -> row``
index plus parallel float64 state columns, grown amortized-doubling as
new components appear.  Detectors fancy-index whole sweeps against the
columns in a handful of numpy operations.

The component -> row mapping is the shared
:class:`~repro.core.rowindex.RowIndex`, memoized by the identity of the
components array (the store's open-head blocks use the same index), so
collectors that republish the same component array pay for the mapping
once.
"""

from __future__ import annotations

import numpy as np

from ..core.rowindex import RowIndex

__all__ = ["ComponentTable"]


class ComponentTable:
    """Component -> row index plus parallel float64 state columns.

    ``columns`` maps column name -> fill value for newly added rows
    (e.g. ``n=0.0, mean=0.0, minimum=math.inf``).  Columns are exposed
    as attributes; rows beyond :attr:`size` are uninitialized capacity.
    """

    def __init__(self, **columns: float) -> None:
        if not columns:
            raise ValueError("ComponentTable needs at least one column")
        self._fill = {k: float(v) for k, v in columns.items()}
        self._rows = RowIndex()
        self._cap = 0
        for name, fill in self._fill.items():
            setattr(self, name, np.empty(0, dtype=np.float64))

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def size(self) -> int:
        return len(self._rows)

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self._fill)

    def _ensure(self, need: int) -> None:
        """Grow every column to hold ``need`` rows (amortized doubling)."""
        if need <= self._cap:
            return
        cap = max(16, self._cap)
        while cap < need:
            cap *= 2
        for name, fill in self._fill.items():
            old = getattr(self, name)
            new = np.full(cap, fill, dtype=np.float64)
            new[: len(old)] = old
            setattr(self, name, new)
        self._cap = cap

    def rows(self, components: np.ndarray) -> tuple[np.ndarray, bool]:
        """Row index per component, registering new components.

        Returns ``(rows, unique)`` from :meth:`RowIndex.rows` and grows
        every column to cover the new rows.
        """
        out = self._rows.rows(components)
        self._ensure(len(self._rows))
        return out

    def row(self, component: str) -> int | None:
        """Row of one component, or None when it was never observed."""
        return self._rows.row(component)
