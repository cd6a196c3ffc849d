"""A tiny stdlib client for the backbone daemon.

:class:`ServeClient` speaks the daemon's JSON protocol over
``http.client`` — no dependencies, one connection per call (the daemon
is threaded; connection reuse buys nothing at this request rate and a
fresh connection can never be wedged by a previous failure).

>>> client = ServeClient("127.0.0.1", 8710)      # doctest: +SKIP
>>> reply = client.run([plan.to_json()])         # doctest: +SKIP
>>> reply["results"][0]["kept_share"]            # doctest: +SKIP
0.25
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, List, Optional, Sequence, Union

from .daemon import DeadlineExceeded

__all__ = ["ServeClient", "ServeError", "DeadlineExceeded"]


class ServeError(RuntimeError):
    """The daemon answered with a request-level error.

    ``status`` is the HTTP status, ``kind`` the error type name from
    the response body (e.g. ``"BadRequest"``).
    """

    def __init__(self, status: int, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.status = status
        self.kind = kind


class ServeClient:
    """Talk to a running :class:`~repro.serve.BackboneDaemon`.

    ``timeout`` bounds each HTTP call at the socket level; give it
    headroom over the request deadline you pass to :meth:`run`, since
    the deadline is enforced (and reported precisely) by the daemon.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8710,
                 timeout: float = 60.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)

    # -- protocol calls ------------------------------------------------

    def run(self, plans: Sequence[Union[str, Dict[str, object]]],
            deadline: Optional[float] = None,
            return_edges: bool = False,
            trace: bool = False) -> Dict[str, object]:
        """POST a batch of plan artifacts; return the decoded reply.

        ``plans`` holds :meth:`~repro.flow.Plan.to_json` strings or
        already-decoded artifact dicts. Raises :class:`DeadlineExceeded`
        when the daemon reports the deadline passed first, and
        :class:`ServeError` for any other request-level failure (kind
        ``"Protocol"`` when the reply is not a JSON object, e.g. from
        a server that is not the daemon); plan-level failures come
        back inside ``reply["results"]``.

        ``trace=True`` asks the daemon to trace this request; the
        reply then carries a ``"trace"`` artifact (trace id, span
        tree, per-stage durations — see :mod:`repro.obs`).
        """
        body: Dict[str, object] = {
            "plans": [json.loads(p) if isinstance(p, str) else p
                      for p in plans],
            "return_edges": bool(return_edges),
        }
        if deadline is not None:
            body["deadline"] = float(deadline)
        if trace:
            body["trace"] = True
        return self._call("POST", "/v1/run", body)

    def status(self) -> Dict[str, object]:
        """Daemon counters, store stats and configuration."""
        return self._call("GET", "/v1/status")

    def metrics(self) -> str:
        """The daemon's Prometheus text exposition (``/v1/metrics``)."""
        return self._call_text("GET", "/v1/metrics")

    def healthy(self) -> bool:
        """True when the daemon answers its health check."""
        try:
            return bool(self._call("GET", "/healthz").get("ok"))
        except (OSError, ServeError):
            return False

    def shutdown(self) -> bool:
        """Ask the daemon to stop; True when it acknowledged."""
        try:
            reply = self._call("POST", "/v1/shutdown")
        except (OSError, ServeError):
            return False
        return bool(reply.get("stopping"))

    # -- transport -----------------------------------------------------

    def _call(self, verb: str, path: str,
              body: Optional[Dict[str, object]] = None):
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload \
                else {}
            connection.request(verb, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        try:
            decoded = json.loads(raw.decode())
        except ValueError:
            decoded = None
        if not isinstance(decoded, dict):
            # Not the daemon's protocol: another server on this port,
            # a proxy's error page, or a truncated reply.
            raise ServeError(response.status, "Protocol",
                             f"HTTP {response.status} reply is not a "
                             f"JSON object: {raw[:80]!r}")
        if response.status >= 400:
            error = decoded.get("error")
            if not isinstance(error, dict):
                error = {}
            kind = str(error.get("type", "ServeError"))
            message = str(error.get("message", "request failed"))
            if kind == "DeadlineExceeded":
                raise DeadlineExceeded(message)
            raise ServeError(response.status, kind, message)
        return decoded

    def _call_text(self, verb: str, path: str) -> str:
        """Like :meth:`_call` for plain-text endpoints (no JSON)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            connection.request(verb, path)
            response = connection.getresponse()
            text = response.read().decode("utf-8")
        finally:
            connection.close()
        if response.status >= 400:
            raise ServeError(response.status, "ServeError",
                             text.strip() or "request failed")
        return text


def collect_results(reply: Dict[str, object]) -> List[Dict[str, object]]:
    """The per-plan result list from a :meth:`ServeClient.run` reply."""
    results = reply.get("results", [])
    if not isinstance(results, list):
        raise ServeError(200, "Protocol", "reply has no result list")
    return results
