"""The on-disk artifact cache: trained pipelines, priced strategy corpora
and fitted pyspark.ml models, which the paper builds once per deployment.

- **Location:** ``$REPRO_MODEL_CACHE``, read on every call, else
  ``.model_cache/`` at the repository root.
- **Keys:** ``<kind>-v<FORMAT_VERSION>-<hash of the build parameters>``.
  Bump :data:`FORMAT_VERSION` whenever a cached class or a builder's
  output changes, so no entry of an older format is read.
- **Writes:** to a temporary path beside the entry, renamed into place, so
  no reader sees a half-written entry.
- **Failures:** an entry that cannot be loaded (truncated, corrupt, written
  by an incompatible library) is logged as one warning, rebuilt and
  overwritten; an entry that cannot be written is logged as one warning
  and the built artifact returned. A cache failure costs a rebuild, never
  an exception.

Entries are unpickled, so the directory must hold only files this program
wrote.
"""
from __future__ import annotations

import hashlib
import logging
import os
import pickle
import shutil
from typing import Callable, TypeVar

T = TypeVar("T")

FORMAT_VERSION = 2

log = logging.getLogger(__name__)


def load_pickle(path: str):
    with open(path, "rb") as f:
        return pickle.load(f)


def save_pickle(value, path: str) -> None:
    with open(path, "wb") as f:
        pickle.dump(value, f)


def cached(
    kind: str,
    key: object,
    build: Callable[[], T],
    *,
    load: Callable[[str], T] = load_pickle,
    save: Callable[[T, str], None] = save_pickle,
) -> T:
    """``build()``'s result, loaded from the cache when present.

    ``key`` holds every parameter the artifact depends on; its ``repr``,
    which must not vary between processes (no sets), is hashed into the
    entry name. ``save(value, path)`` writes a file or a directory at
    ``path`` and ``load(path)`` reads it back.
    """
    root = os.environ.get(
        "REPRO_MODEL_CACHE", os.path.join(os.path.dirname(__file__), "..", "..", ".model_cache")
    )
    tag = hashlib.sha1(repr(key).encode()).hexdigest()[:16]
    path = os.path.join(root, f"{kind}-v{FORMAT_VERSION}-{tag}")
    if os.path.lexists(path):
        try:
            return load(path)
        except Exception:  # any unreadable entry is rebuilt
            log.warning("cache entry %s cannot be loaded; rebuilding it", path, exc_info=True)
            _remove(path)
    value = build()
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        os.makedirs(root, exist_ok=True)
        save(value, tmp)
        os.replace(tmp, path)
    except OSError:
        log.warning("cache entry %s cannot be written", path, exc_info=True)
        _remove(tmp)
    return value


def _remove(path: str) -> None:
    if os.path.isdir(path) and not os.path.islink(path):
        shutil.rmtree(path, ignore_errors=True)
    elif os.path.lexists(path):
        os.remove(path)
