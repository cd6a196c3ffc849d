"""One grammar for backend spec strings, shared by every consumer.

``ScoreStore(cache_dir=...)``, worker reconnection
(``ScoreStore.worker_spec()`` → :func:`repro.flow.serve` →
``from_worker_spec``), ``repro cache --dir`` and ``repro serve
--cache-dir`` all accept the same strings; historically each call site re-implemented the prefix
sniffing. :func:`parse_spec` is now the single parser and
:func:`build_backend` the single constructor — a new scheme lands in
one place and every entry point learns it at once.

The grammar::

    .repro-cache                 directory of npz + JSON entries
    dir://.repro-cache           same, explicit
    scores.sqlite                single WAL-mode SQLite file (suffix)
    sqlite://path/to/scores      same, explicit
    kv://                        fresh in-memory KV client (testing)
    kv://host:port               networked KV server (repro.net)
    kv://host:port?timeout=2&attempts=5&retry_wait=0.1
                                 same, with client tuning

Round-trip contract: for any backend with a serializable location,
``build_backend(parse_spec(b.spec())).spec() == b.spec()`` — which is
exactly what lets worker processes reconnect to the same networked
cache instead of silently falling back to a private in-memory one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Tuple, Union
from urllib.parse import parse_qsl

#: File suffixes routed to :class:`SQLiteBackend` by suffix sniffing.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: Schemes :func:`parse_spec` understands.
BACKEND_SCHEMES = ("dir", "sqlite", "kv")


@dataclass(frozen=True)
class BackendSpec:
    """A parsed backend location: scheme, target, client options."""

    scheme: str
    target: str
    options: Tuple[Tuple[str, str], ...] = field(default=())

    def option(self, name: str, default: str = "") -> str:
        for key, value in self.options:
            if key == name:
                return value
        return default

    def render(self) -> str:
        """The canonical spec string this parses back from."""
        text = f"{self.scheme}://{self.target}"
        if self.options:
            text += "?" + "&".join(f"{k}={v}"
                                   for k, v in self.options)
        return text


def parse_spec(target: Union[str, Path]) -> BackendSpec:
    """Parse a backend location string (or ``Path``) into a spec.

    Unknown ``scheme://`` prefixes raise ``ValueError`` naming the
    supported schemes instead of silently becoming directory paths.
    """
    text = str(target)
    scheme, sep, rest = text.partition("://")
    if sep and scheme.isalnum():
        if scheme not in BACKEND_SCHEMES:
            raise ValueError(
                f"unknown backend scheme {scheme!r} in {text!r}; "
                "supported schemes: "
                + ", ".join(f"{s}://" for s in BACKEND_SCHEMES))
        rest, _, query = rest.partition("?")
        options = tuple(parse_qsl(query, keep_blank_values=True)) \
            if query else ()
        if scheme == "kv":
            rest = rest.rstrip("/")
            if rest and _split_address(rest) is None:
                raise ValueError(
                    f"bad kv target {rest!r} in {text!r}; expected "
                    "kv:// (in-memory) or kv://host:port")
        return BackendSpec(scheme, rest, options)
    if Path(text).suffix.lower() in SQLITE_SUFFIXES:
        return BackendSpec("sqlite", text)
    return BackendSpec("dir", text)


def _split_address(target: str):
    """``(host, port)`` from ``host:port``, or ``None`` if malformed."""
    host, sep, port = target.rpartition(":")
    if not sep or not host or "/" in target:
        return None
    try:
        return host, int(port)
    except ValueError:
        return None


def build_backend(spec: BackendSpec):
    """Construct the backend a parsed spec describes."""
    from .directory import DirectoryBackend
    from .kv import KVBackend
    from .sqlite import SQLiteBackend

    if spec.scheme == "dir":
        return DirectoryBackend(spec.target)
    if spec.scheme == "sqlite":
        return SQLiteBackend(spec.target)
    if spec.scheme != "kv":  # pragma: no cover - parse_spec gates this
        raise ValueError(f"unknown backend scheme {spec.scheme!r}")
    timeout = float(spec.option("timeout", "5.0"))
    attempts = int(spec.option("attempts", "3"))
    retry_wait = float(spec.option("retry_wait", "0.0"))
    if not spec.target:
        return KVBackend(timeout=timeout, max_attempts=attempts,
                         retry_wait=retry_wait)
    # Imported lazily: repro.net.transport itself depends on this
    # package for the KV error taxonomy.
    from ...net.transport import SocketKVTransport
    host, port = _split_address(spec.target)
    return KVBackend(SocketKVTransport(host, port, timeout=timeout),
                     timeout=timeout, max_attempts=attempts,
                     retry_wait=retry_wait)
