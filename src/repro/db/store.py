"""The versioned object store.

Section 2.2 of the paper: "objects are tagged with version numbers" and
the replica control protocol "assigns the version number gid(T) to the
object" on every write.  Because the gid is the position of the
transaction in the total order, **all sites have the same version number
for an object at a given logical time point** — which is precisely what
the version-check transfer strategy (section 4.4) exploits.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Optional, Set, Tuple

#: Version assigned to objects of the initial database image (no writer yet).
INITIAL_VERSION = -1


class ObjectStore:
    """In-memory object store mapping object id -> (value, version)."""

    def __init__(self, initial: Optional[Dict[str, Any]] = None) -> None:
        self._data: Dict[str, Any] = {}
        self._version: Dict[str, int] = {}
        #: Objects written, removed or reloaded since :meth:`take_changed`
        #: last emptied it: what a checkpoint must re-read.
        self._changed: Set[str] = set()
        if initial:
            self.write_many(initial, INITIAL_VERSION)

    # ------------------------------------------------------------------
    def __contains__(self, obj: str) -> bool:
        return obj in self._data

    def __len__(self) -> int:
        return len(self._data)

    def objects(self) -> Iterator[str]:
        """Object identifiers in deterministic (sorted) order."""
        return iter(sorted(self._data))

    def read(self, obj: str) -> Tuple[Any, int]:
        """Return (value, version).  KeyError if the object is unknown."""
        return self._data[obj], self._version[obj]

    def value(self, obj: str) -> Any:
        return self._data[obj]

    def version(self, obj: str) -> int:
        return self._version[obj]

    def version_or(self, obj: str, default: int = INITIAL_VERSION) -> int:
        """The stored version, or ``default`` for unknown objects — one
        lookup instead of a containment probe plus a read."""
        return self._version.get(obj, default)

    def peek(self, obj: str) -> Tuple[Any, int]:
        """Like :meth:`read` but yields ``(None, INITIAL_VERSION)`` for
        unknown objects instead of raising."""
        version = self._version.get(obj)
        if version is None:
            return None, INITIAL_VERSION
        return self._data[obj], version

    def write(self, obj: str, value: Any, version: int) -> None:
        """Install ``value`` with writer version ``version`` (a gid)."""
        self._data[obj] = value
        self._version[obj] = version
        self._changed.add(obj)

    def write_many(self, values: Dict[str, Any], version: int) -> None:
        """:meth:`write` every ``{obj: value}`` of ``values`` at ``version``."""
        self._data.update(values)
        self._version.update(dict.fromkeys(values, version))
        self._changed.update(values)

    def remove(self, obj: str) -> None:
        self._data.pop(obj, None)
        self._version.pop(obj, None)
        self._changed.add(obj)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Tuple[Any, int]]:
        """A consistent copy {obj: (value, version)} of the whole store."""
        return {obj: (self._data[obj], self._version[obj]) for obj in self._data}

    def load_snapshot(self, snapshot: Dict[str, Tuple[Any, int]]) -> None:
        """Replace the entire content (used when installing transferred state)."""
        self._changed.update(self._data)
        self._data = {obj: value for obj, (value, _) in snapshot.items()}
        self._version = {obj: version for obj, (_, version) in snapshot.items()}
        self._changed.update(self._data)

    def apply(self, items: Iterable[Tuple[str, Any, int]]) -> None:
        """Apply (obj, value, version) triples, keeping the newest version.

        Used when incorporating transferred data: a version already more
        recent locally (e.g. installed by an enqueued transaction) wins.
        """
        for obj, value, version in items:
            if obj not in self._version or self._version[obj] <= version:
                self.write(obj, value, version)

    def take_changed(self) -> Set[str]:
        """The objects written, removed or reloaded since the last call
        (present or not now), and start a new record."""
        changed, self._changed = self._changed, set()
        return changed

    def read_many(self, objs: Iterable[str]) -> Dict[str, Tuple[Any, int]]:
        """``{obj: (value, version)}`` of those ``objs`` the store holds."""
        data, version = self._data, self._version
        return {obj: (data[obj], version[obj]) for obj in objs if obj in data}

    def content_digest(self) -> Tuple[Tuple[str, Any, int], ...]:
        """Canonical content tuple, for equality checks across replicas."""
        return tuple((obj, self._data[obj], self._version[obj]) for obj in sorted(self._data))
