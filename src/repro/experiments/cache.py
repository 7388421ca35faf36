"""Content-addressed on-disk result cache for the experiment orchestrator.

Every orchestrator job (a shared training step or a full experiment) is
identified by a SHA-256 digest over its *code-relevant* inputs: the job name,
the :class:`~repro.experiments.registry.ExperimentScale` fields, a fingerprint
of the Python source implementing the job plus the training-pipeline modules
it calls into (see ``pipeline_fingerprint`` in the registry), and the keys of
its dependencies.  Re-running with the same inputs is therefore a pure cache
hit, while editing an experiment function or the core training code
invalidates the stale entries.  Changes outside the fingerprinted modules
(e.g. the autograd substrate) are not tracked — bump :data:`CACHE_VERSION`
after such a change to invalidate everything.

A cache entry is a directory holding

* ``entry.json`` — the JSON-serialisable payload (scalars, histories, rows);
* ``states.npz`` — zero or more named model state dicts (NumPy arrays).

Entries are written atomically (build in a temp directory, then ``rename``
into place) so concurrent orchestrator workers can safely race on the same
key: the loser simply discards its copy.

Examples
--------
Digests are order-insensitive over mappings and stable across processes:

>>> config_digest({"b": 1, "a": 2}) == config_digest({"a": 2, "b": 1})
True
>>> len(config_digest("anything"))
64
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import shutil
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

__all__ = [
    "CACHE_VERSION",
    "Artifact",
    "ResultCache",
    "config_digest",
    "default_cache_dir",
    "source_fingerprint",
]

#: Bump to invalidate every existing cache entry after an incompatible change
#: to the on-disk layout or the artifact conventions.
CACHE_VERSION = 1


def _json_default(value: Any):
    """Make NumPy scalars/arrays JSON-serialisable (used by every dump here)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON-serialisable: {type(value)!r}")


def config_digest(*parts: Any) -> str:
    """Stable SHA-256 hex digest of arbitrary JSON-serialisable values.

    Parameters
    ----------
    *parts:
        Values hashed in order.  Mappings are canonicalised (sorted keys), so
        dictionaries digest identically regardless of insertion order.

    Returns
    -------
    str
        A 64-character lowercase hex digest.
    """
    blob = json.dumps(parts, sort_keys=True, default=_json_default, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def source_fingerprint(*objs: Callable | type) -> str:
    """Digest of the Python source of the given functions/classes.

    Used as the "code-relevant" component of a cache key: editing a step or
    experiment implementation changes its fingerprint and therefore its key.
    Objects whose source cannot be retrieved (builtins, C extensions) fall
    back to their qualified name.
    """
    chunks = []
    for obj in objs:
        try:
            chunks.append(inspect.getsource(obj))
        except (OSError, TypeError):
            chunks.append(getattr(obj, "__qualname__", repr(obj)))
    return config_digest(chunks)


def default_cache_dir() -> Path:
    """The cache root used when none is given explicitly.

    Resolution order: the ``REPRO_CACHE_DIR`` environment variable, then
    ``.repro_cache/`` under the current working directory.
    """
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


@dataclass
class Artifact:
    """The value produced by one cached job.

    Attributes
    ----------
    meta:
        JSON-serialisable metadata — accuracies, training histories, result
        rows.  Stored in ``entry.json``.
    states:
        Named model state dicts (``{"model": {param_name: ndarray, ...}}``).
        Stored in ``states.npz``.
    """

    meta: dict = field(default_factory=dict)
    states: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)


class ResultCache:
    """Content-addressed artifact store on the local filesystem.

    Parameters
    ----------
    root:
        Directory holding the cache.  Created lazily on first write.

    Examples
    --------
    >>> import tempfile
    >>> cache = ResultCache(tempfile.mkdtemp())
    >>> key = config_digest("demo", 1)
    >>> cache.load(key) is None
    True
    >>> cache.store(key, Artifact(meta={"accuracy": 51.2}))
    >>> cache.load(key).meta["accuracy"]
    51.2
    """

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.evicted = 0  # corrupt entries this instance deleted on load

    # ------------------------------------------------------------------ #
    # layout
    # ------------------------------------------------------------------ #
    def _entry_dir(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / key

    def has(self, key: str) -> bool:
        """Whether a complete entry for ``key`` exists on disk."""
        return (self._entry_dir(key) / "entry.json").is_file()

    # ------------------------------------------------------------------ #
    # read / write
    # ------------------------------------------------------------------ #
    def load(self, key: str) -> Artifact | None:
        """Load the artifact stored under ``key``.

        Returns
        -------
        Artifact or None
            ``None`` on a cache miss.  An unreadable/corrupt entry (e.g. a
            truncated write from a crashed run) is deleted, counted in
            ``stats()["evicted"]`` and treated as a miss, so the next
            :meth:`store` can repair it.  Any other error propagates.
        """
        entry = self._entry_dir(key)
        if not (entry / "entry.json").is_file():
            return None
        try:
            with open(entry / "entry.json", "r", encoding="utf-8") as handle:
                meta = json.load(handle)
            states: dict[str, dict[str, np.ndarray]] = {}
            states_path = entry / "states.npz"
            if states_path.is_file():
                with np.load(states_path, allow_pickle=False) as archive:
                    for name in archive.files:
                        group, _, param = name.partition("::")
                        states.setdefault(group, {})[param] = archive[name]
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            # Corrupt entry: evict it so it is recomputed and re-stored
            # instead of failing forever.
            shutil.rmtree(entry, ignore_errors=True)
            self.evicted += 1
            return None
        return Artifact(meta=meta, states=states)

    def store(self, key: str, artifact: Artifact) -> None:
        """Atomically write ``artifact`` under ``key`` (last writer loses).

        The entry is assembled in a temporary directory and renamed into
        place; if another process stored the same key first, the freshly
        built copy is discarded — content-addressed entries for the same key
        are interchangeable by construction.
        """
        final = self._entry_dir(key)
        if self.has(key):
            return
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f".{key[:8]}-", dir=final.parent))
        try:
            with open(tmp / "entry.json", "w", encoding="utf-8") as handle:
                json.dump(artifact.meta, handle, default=_json_default, indent=1)
            if artifact.states:
                flat = {
                    f"{group}::{param}": np.asarray(array)
                    for group, state in artifact.states.items()
                    for param, array in state.items()
                }
                np.savez(tmp / "states.npz", **flat)
            try:
                os.rename(tmp, final)
            except OSError:
                # Lost the race: a complete entry already exists.
                shutil.rmtree(tmp, ignore_errors=True)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise

    def memoize(self, key: str, compute: Callable[[], Artifact]) -> tuple[Artifact, bool]:
        """Return the cached artifact for ``key``, computing it on a miss.

        Returns
        -------
        (Artifact, bool)
            The artifact and whether it came from the cache (``True`` = hit).
        """
        cached = self.load(key)
        if cached is not None:
            return cached, True
        artifact = compute()
        self.store(key, artifact)
        return artifact, False

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Delete every cache entry (the root directory itself is kept)."""
        shutil.rmtree(self.root / "objects", ignore_errors=True)

    def stats(self) -> Mapping[str, int]:
        """Entry count and total size in bytes of the on-disk cache, and the
        number of corrupt entries this instance evicted."""
        entries = 0
        size = 0
        objects = self.root / "objects"
        if objects.is_dir():
            for path in objects.rglob("*"):
                if path.is_file():
                    size += path.stat().st_size
                    if path.name == "entry.json":
                        entries += 1
        return {"entries": entries, "bytes": size, "evicted": self.evicted}
