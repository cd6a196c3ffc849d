"""Pluggable source-scheme resolvers for ``flow(source)``.

Historically ``flow("s3://…")`` died at a hard-coded gate that knew
about local paths and ``file://`` only. The gate is now a registry:
every URL scheme maps to a *resolver* — a callable turning the URL
plus parse options into a source spec (an object with
``fingerprint()`` / ``resolve()`` / ``describe()``) — and anyone can
add one::

    from repro.flow.sources import register_scheme

    def s3_resolver(url, *, directed, delimiter, format):
        return MyS3Source(url, directed, delimiter, format)

    register_scheme("s3", s3_resolver)

Built-in schemes:

- ``file://`` — stripped to a local :class:`~repro.flow.spec.FileSource`.
- ``http://`` / ``https://`` — :class:`RemoteSource`; the file is
  fetched with chunked ranged reads (falling back to one streamed
  ``GET`` when the server ignores ``Range``), spooled locally, then
  fingerprinted and parsed through the exact local-file code path.
- ``kv://host:port/key`` — :class:`RemoteSource` over an object
  stored in a :mod:`repro.net` KV server (see
  :func:`repro.net.put_object`), digest-verified end to end.

Because :class:`RemoteSource` fingerprints the *fetched bytes* with
the same :func:`~repro.pipeline.fingerprint.fingerprint_file` +
:func:`~repro.pipeline.fingerprint.fingerprint_source_request`
combination ``FileSource`` uses, a remote URL and a local copy of the
same file produce identical source fingerprints — warm caches carry
over no matter which side populated them.

Fetched bytes are spooled once per URL per process (under a temp
directory cleaned at exit). The spool is a byte-capped LRU: when the
spooled files together exceed :func:`fetch_cache_limit` (the
``REPRO_FETCH_CACHE_BYTES`` environment variable, default 256 MiB,
overridable with :func:`set_fetch_cache_limit`), the least recently
used spool files are deleted — the next access refetches them — so a
long-lived process touching many URLs holds bounded disk/tmpfs, not
one spool file per URL forever. Evictions are counted in the metrics
registry (``repro_fetch_spool_evictions_total``).
:func:`clear_fetch_cache` drops the whole spool, which tests use to
force refetches.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import os
import posixpath
import re
import shutil
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple
from urllib.error import URLError
from urllib.parse import urlsplit
from urllib.request import Request, urlopen

from ..graph.edge_table import EdgeTable
from ..graph.ingest import detect_format, read_edges
from ..obs.metrics import get_registry
from ..pipeline.fingerprint import (fingerprint_file,
                                    fingerprint_source_request)
from ..util.validation import require

#: Bytes per ranged HTTP request; large enough that edge tables move
#: in a handful of round trips, small enough to bound one read.
HTTP_CHUNK_BYTES = 8 * 1024 * 1024

#: Socket timeout per HTTP request.
HTTP_TIMEOUT = 30.0


class SourceFetchError(ValueError):
    """A remote source could not be fetched or verified."""


# ----------------------------------------------------------------------
# The resolver registry (the old scheme gate, made pluggable)
# ----------------------------------------------------------------------

#: scheme -> resolver(url, *, directed, delimiter, format) -> spec
_RESOLVERS: Dict[str, Callable] = {}
_REGISTRY_LOCK = threading.Lock()


def register_scheme(scheme: str, resolver: Callable,
                    replace: bool = False) -> None:
    """Register ``resolver`` for ``scheme://…`` source URLs.

    The resolver is called as ``resolver(url, *, directed,
    delimiter, format)`` and must return a source spec — any object
    with ``fingerprint()``, ``resolve()`` and ``describe()``.
    Re-registering an existing scheme requires ``replace=True``.
    """
    require(isinstance(scheme, str)
            and re.fullmatch(r"[a-z][a-z0-9+.-]*", scheme) is not None,
            f"bad scheme {scheme!r}: expected lowercase URL-scheme "
            "characters")
    require(callable(resolver), "resolver must be callable")
    with _REGISTRY_LOCK:
        if scheme in _RESOLVERS and not replace:
            raise ValueError(
                f"scheme {scheme!r} is already registered; pass "
                "replace=True to override it")
        _RESOLVERS[scheme] = resolver


def unregister_scheme(scheme: str) -> None:
    """Remove a registered scheme (no-op when absent)."""
    with _REGISTRY_LOCK:
        _RESOLVERS.pop(scheme, None)


def registered_schemes() -> Tuple[str, ...]:
    """Sorted scheme names the registry currently resolves."""
    with _REGISTRY_LOCK:
        return tuple(sorted(_RESOLVERS))


def resolver_for(scheme: str) -> Optional[Callable]:
    with _REGISTRY_LOCK:
        return _RESOLVERS.get(scheme)


def resolve_url(url: str, *, directed: bool = True,
                delimiter: str = ",",
                format: Optional[str] = None):
    """Route a ``scheme://…`` source URL through the registry."""
    scheme = url.partition("://")[0].lower()
    resolver = resolver_for(scheme)
    if resolver is None:
        known = ", ".join(f"{name}://" for name in registered_schemes())
        raise ValueError(
            f"unsupported source scheme {scheme!r}; registered "
            f"schemes: {known} (plus bare local paths); add new ones "
            "with repro.flow.sources.register_scheme")
    return resolver(url, directed=directed, delimiter=delimiter,
                    format=format)


def is_source_spec(obj) -> bool:
    """True for any object satisfying the source-spec contract."""
    return all(callable(getattr(obj, name, None))
               for name in ("fingerprint", "resolve", "describe"))


# ----------------------------------------------------------------------
# The fetch spool
# ----------------------------------------------------------------------

#: Default byte cap on spooled fetches (overridden by the
#: ``REPRO_FETCH_CACHE_BYTES`` env var / :func:`set_fetch_cache_limit`).
DEFAULT_FETCH_CACHE_BYTES = 256 << 20

_SPOOL_LOCK = threading.Lock()
_SPOOL_DIR: Optional[Path] = None
#: url -> spool path, in least-recently-used-first order.
_SPOOLED: "OrderedDict[str, Path]" = OrderedDict()
#: url -> spooled byte size (kept in lockstep with ``_SPOOLED``).
_SPOOL_SIZES: Dict[str, int] = {}
_SPOOL_TOTAL = 0
_FETCH_CACHE_LIMIT: Optional[int] = None

_SPOOL_EVICTIONS = get_registry().counter(
    "repro_fetch_spool_evictions_total",
    "Fetch-spool files evicted by the LRU byte cap.")


def fetch_cache_limit() -> int:
    """The spool byte cap currently in force.

    :func:`set_fetch_cache_limit` wins over the
    ``REPRO_FETCH_CACHE_BYTES`` environment variable, which wins over
    :data:`DEFAULT_FETCH_CACHE_BYTES`.
    """
    if _FETCH_CACHE_LIMIT is not None:
        return _FETCH_CACHE_LIMIT
    text = os.environ.get("REPRO_FETCH_CACHE_BYTES")
    if text is not None:
        with contextlib.suppress(ValueError):
            return max(0, int(text))
    return DEFAULT_FETCH_CACHE_BYTES


def set_fetch_cache_limit(limit: Optional[int]) -> None:
    """Override the spool byte cap; ``None`` restores env/default.

    Lowering the cap takes effect at the next fetch (nothing is
    evicted eagerly).
    """
    global _FETCH_CACHE_LIMIT
    require(limit is None or (isinstance(limit, int) and limit >= 0),
            f"fetch cache limit must be a non-negative int or None, "
            f"got {limit!r}")
    _FETCH_CACHE_LIMIT = limit


def _spool_insert(url: str, dest: Path) -> None:
    """Record a fresh spool file and evict LRU entries over the cap.

    The just-inserted entry is never evicted — a file larger than the
    whole cap still has to be usable once — so the spool can transiently
    exceed the cap by one oversized file.
    """
    global _SPOOL_TOTAL
    size = dest.stat().st_size
    _SPOOLED[url] = dest
    _SPOOLED.move_to_end(url)
    _SPOOL_TOTAL += size - _SPOOL_SIZES.get(url, 0)
    _SPOOL_SIZES[url] = size
    limit = fetch_cache_limit()
    while _SPOOL_TOTAL > limit and len(_SPOOLED) > 1:
        stale_url, stale_path = next(iter(_SPOOLED.items()))
        if stale_url == url:  # pragma: no cover - len>1 guards this
            break
        del _SPOOLED[stale_url]
        _SPOOL_TOTAL -= _SPOOL_SIZES.pop(stale_url)
        stale_path.unlink(missing_ok=True)
        _SPOOL_EVICTIONS.inc()


def _spool_dir() -> Path:
    global _SPOOL_DIR
    if _SPOOL_DIR is None:
        _SPOOL_DIR = Path(tempfile.mkdtemp(prefix="repro-sources-"))
        atexit.register(shutil.rmtree, _SPOOL_DIR,
                        ignore_errors=True)
    return _SPOOL_DIR


def clear_fetch_cache() -> None:
    """Delete every spooled fetch (the next access refetches)."""
    global _SPOOL_TOTAL
    with _SPOOL_LOCK:
        for path in _SPOOLED.values():
            path.unlink(missing_ok=True)
        _SPOOLED.clear()
        _SPOOL_SIZES.clear()
        _SPOOL_TOTAL = 0


def url_filename(url: str) -> str:
    """The file name a URL's path ends in (may be empty)."""
    return posixpath.basename(urlsplit(url).path)


def _fetch(url: str) -> Path:
    """Spooled local copy of ``url`` (fetched once per process)."""
    with _SPOOL_LOCK:
        cached = _SPOOLED.get(url)
        if cached is not None and cached.exists():
            _SPOOLED.move_to_end(url)  # freshen for LRU eviction
            return cached
        scheme = url.partition("://")[0].lower()
        name = re.sub(r"[^A-Za-z0-9._-]", "_",
                      url_filename(url)) or "source"
        digest = hashlib.sha256(url.encode("utf-8")).hexdigest()[:16]
        dest = _spool_dir() / f"{digest}-{name}"
        if scheme in ("http", "https"):
            _http_fetch(url, dest)
        elif scheme == "kv":
            _kv_fetch(url, dest)
        else:  # pragma: no cover - resolvers gate the schemes
            raise SourceFetchError(f"no fetcher for {url!r}")
        _spool_insert(url, dest)
        return dest


def _http_fetch(url: str, dest: Path,
                chunk_bytes: int = HTTP_CHUNK_BYTES,
                timeout: float = HTTP_TIMEOUT) -> None:
    """Download ``url`` with ranged reads, falling back to one GET.

    Servers answering ``206 Partial Content`` are read in
    ``chunk_bytes`` ranges (bounding per-request memory and making
    huge tables resumable-by-construction); a ``200`` means ``Range``
    was ignored and the body streams down whole.
    """
    part = dest.with_suffix(dest.suffix + ".part")
    offset = 0
    total: Optional[int] = None
    try:
        with open(part, "wb") as sink:
            while True:
                request = Request(url, headers={
                    "Range":
                        f"bytes={offset}-{offset + chunk_bytes - 1}"})
                with urlopen(request, timeout=timeout) as response:
                    status = response.getcode()
                    if status != 206:
                        # Range unsupported: one streamed full read.
                        sink.seek(0)
                        sink.truncate()
                        shutil.copyfileobj(response, sink)
                        break
                    data = response.read()
                    sink.write(data)
                    offset += len(data)
                    total = _content_range_total(
                        response.headers.get("Content-Range"), total)
                if total is not None:
                    if offset >= total:
                        break
                elif len(data) < chunk_bytes:
                    break
                if not data:
                    break
    except URLError as error:
        part.unlink(missing_ok=True)
        raise SourceFetchError(
            f"failed to fetch {url}: {error}") from error
    if total is not None and offset != total:
        part.unlink(missing_ok=True)
        raise SourceFetchError(
            f"short ranged download of {url}: got {offset} of "
            f"{total} bytes")
    part.replace(dest)


def _content_range_total(header: Optional[str],
                         fallback: Optional[int]) -> Optional[int]:
    """Total size from a ``Content-Range: bytes a-b/total`` header."""
    if header:
        _, _, text = header.partition("/")
        if text.strip().isdigit():
            return int(text)
    return fallback


def _kv_fetch(url: str, dest: Path) -> None:
    """Fetch an object from ``kv://host:port/key`` (digest-verified)."""
    parts = urlsplit(url)
    key = parts.path.lstrip("/")
    if not parts.netloc or ":" not in parts.netloc or not key:
        raise SourceFetchError(
            f"bad kv source URL {url!r}; expected kv://host:port/key")
    from ..net.objects import get_object
    from ..pipeline.backends import KVUnavailableError
    try:
        data = get_object(f"kv://{parts.netloc}", key)
    except KeyError as error:
        raise SourceFetchError(str(error)) from error
    except KVUnavailableError as error:
        raise SourceFetchError(
            f"kv server unreachable for {url}: {error}") from error
    dest.write_bytes(data)


# ----------------------------------------------------------------------
# RemoteSource: fetched bytes through the local-file code path
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RemoteSource:
    """A remote edge file (``http(s)://`` or ``kv://host:port/key``).

    Fetches once per process, then behaves exactly like a
    :class:`~repro.flow.spec.FileSource` over the spooled bytes —
    including the fingerprint, so remote and local copies of the same
    file share one cache lineage.
    """

    url: str
    directed: bool = True
    delimiter: str = ","
    format: Optional[str] = None  # autodetected from the URL if None

    kind = "remote"

    def __post_init__(self):
        require(isinstance(self.url, str) and "://" in self.url,
                "RemoteSource needs a scheme:// URL")

    def _format(self) -> str:
        return self.format or detect_format(url_filename(self.url))

    def local_path(self) -> Path:
        """The spooled local copy (fetching it on first use)."""
        return _fetch(self.url)

    def fingerprint(self) -> str:
        return fingerprint_source_request(
            fingerprint_file(self.local_path()),
            directed=self.directed, delimiter=self.delimiter,
            format=self._format())

    def resolve(self) -> EdgeTable:
        return read_edges(self.local_path(), directed=self.directed,
                          delimiter=self.delimiter,
                          format=self._format())

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"kind": "remote",
                                      "url": self.url}
        if self.directed is not True:
            payload["directed"] = self.directed
        if self.delimiter != ",":
            payload["delimiter"] = self.delimiter
        if self.format is not None:
            payload["format"] = self.format
        return payload

    def describe(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"remote {self.url} ({self._format()}, {kind})"


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------

def _file_resolver(url, *, directed, delimiter, format):
    from .spec import FileSource
    return FileSource(path=url.partition("://")[2],
                      directed=directed, delimiter=delimiter,
                      format=format)


def _remote_resolver(url, *, directed, delimiter, format):
    return RemoteSource(url=url, directed=directed,
                        delimiter=delimiter, format=format)


register_scheme("file", _file_resolver)
register_scheme("http", _remote_resolver)
register_scheme("https", _remote_resolver)
register_scheme("kv", _remote_resolver)
