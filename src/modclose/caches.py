"""A bounded memo for the module-level caches of one process."""

from __future__ import annotations


class BoundedCache:
    """A memo holding at most ``cap`` entries.

    Storing a new key into a full cache first drops the oldest entry
    (insertion order), so a long-lived process keeps at most ``cap`` results
    while a single command, which meets far fewer keys, still finds every
    repeat.
    """

    __slots__ = ("cap", "_data")

    def __init__(self, cap: int):
        self.cap = cap
        self._data: dict = {}

    def get(self, key):
        return self._data.get(key)

    def put(self, key, value) -> None:
        data = self._data
        if key not in data and len(data) >= self.cap:
            del data[next(iter(data))]
        data[key] = value

    def __len__(self) -> int:
        return len(self._data)
