"""Identity-memoized component -> row indexing for columnar state.

Every columnar plane keeps per-component state in rows of numpy
arrays (streaming detector tables, the store's open-head blocks) and
so maps each batch's ``components`` array to row numbers.  That mapping
is the only irreducibly per-component work on the ingest path, and
collectors republish the *same* read-only component array every sweep
(``NodeStore.name_array`` and its siblings), so it is memoized by the
array's identity: a steady-state sweep costs one ``is`` test.

Component arrays must therefore be treated as immutable once published
— the rule :class:`~repro.core.metric.SeriesBatch` already implies by
exposing views, not copies.  A memo holds a strong reference to the
array it keys on, so a dead array's ``id`` can never alias a live one.
"""

from __future__ import annotations

from typing import Generic, TypeVar

import numpy as np

__all__ = ["IdentityMemo", "RowIndex"]

V = TypeVar("V")

_EMPTY = object()


class IdentityMemo(Generic[V]):
    """One value derived from one array, memoized by the array's identity.

    Single-slot: the memo remembers the most recent array only, which is
    the steady state of a per-metric consumer (each metric is always
    published over the same component array).  ``hits``/``misses``
    count lookups, so tests can check that a hot path is memoized.
    """

    __slots__ = ("_key", "_value", "hits", "misses")

    def __init__(self) -> None:
        self._key: object = _EMPTY
        self._value: V | None = None
        self.hits = 0
        self.misses = 0

    def get(self, key: object) -> V | None:
        """The memoized value when ``key`` is the remembered array."""
        if key is self._key:
            self.hits += 1
            return self._value
        self.misses += 1
        return None

    def put(self, key: object, value: V) -> V:
        self._key = key
        self._value = value
        return value

    def clear(self) -> None:
        self._key = _EMPTY
        self._value = None


class RowIndex:
    """Component -> row mapping with an identity memo over batch arrays.

    Rows are assigned densely in first-seen order and never reused;
    :meth:`forget` unmaps a component (its row stays allocated, dead),
    so a later batch naming it again gets a fresh row.  Components are
    keyed by ``str`` so the index agrees with :class:`MetricKey`.
    """

    __slots__ = ("index", "names", "memo")

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.names: list[str] = []          # row -> component
        self.memo: IdentityMemo[tuple[np.ndarray, bool]] = IdentityMemo()

    def __len__(self) -> int:
        return len(self.names)

    def rows(self, components: np.ndarray) -> tuple[np.ndarray, bool]:
        """Row per component (read-only), registering new components.

        Returns ``(rows, unique)``; ``unique`` is True when no row
        repeats within ``components`` — the signal for the sort-free
        fancy-indexing fast paths.
        """
        hit = self.memo.get(components)
        if hit is not None:
            return hit
        index = self.index
        names = self.names
        get = index.get
        before = len(names)
        out = []
        for c in components.tolist():
            r = get(c)
            if r is None:
                c = str(c)
                r = get(c)
                if r is None:
                    r = index[c] = len(names)
                    names.append(c)
            out.append(r)
        rows = np.array(out, dtype=np.intp)
        rows.flags.writeable = False
        # all-new components are unique by construction; otherwise check
        unique = (len(names) - before == len(out)
                  or len(set(out)) == len(out))
        return self.memo.put(components, (rows, unique))

    def row(self, component: str) -> int | None:
        """Row of one component, or None when it is not mapped."""
        return self.index.get(component)

    def add(self, component: str) -> int:
        """Row of one component, registering it when new."""
        r = self.index.get(component)
        if r is None:
            r = self.index[component] = len(self.names)
            self.names.append(component)
        return r

    def forget(self, component: str) -> None:
        """Unmap a component; its next appearance gets a new row."""
        if self.index.pop(component, None) is not None:
            self.memo.clear()
