"""A thin stdlib client for the evaluation server.

:class:`ServerClient` wraps :mod:`http.client` — no dependencies, one
connection per call (simple and thread-safe), JSON in/out.  It is the
client the tests, the example, the benchmark, and the CI smoke job
drive the server with; anything it can do, plain ``curl`` can do too
(see ``docs/SERVER.md``).

Transport failures and non-2xx responses raise
:class:`~repro.errors.ServerError`; admission rejections (503) can be
surfaced as data instead via ``raise_for_reject=False``, which the
saturation tests use to count 503s.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Iterator, List, Optional, Tuple

from .. import workloads
from ..errors import ServerError
from .work import ROUTES

__all__ = ["ServerClient"]


class ServerClient:
    """Synchronous client for one :class:`~repro.server.ReproServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8033,
        timeout: float = 60.0,
    ):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)

    # -- transport ------------------------------------------------------
    def _request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        except OSError as exc:
            raise ServerError(
                f"cannot reach repro server at {self.host}:{self.port}: {exc}"
            ) from exc
        finally:
            connection.close()

    def _json(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        ok: Tuple[int, ...] = (200, 202),
        raise_for_reject: bool = True,
    ) -> dict:
        status, raw = self._request(method, path, payload)
        try:
            document = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServerError(
                f"{method} {path} returned {status} with a non-JSON body"
            ) from exc
        if status in ok:
            return document
        if status == 503 and not raise_for_reject:
            document.setdefault("rejected", True)
            document["http_status"] = status
            return document
        detail = document.get("error", repr(raw[:200]))
        raise ServerError(f"{method} {path} -> {status}: {detail}")

    # -- submissions ----------------------------------------------------
    def submit(
        self, kind: str, spec: Optional[dict] = None,
        raise_for_reject: bool = True,
    ) -> dict:
        """Submit one job; returns the 202 job document.

        With ``raise_for_reject=False`` a 503 returns the rejection
        document (``rejected: true``) instead of raising.
        """
        try:
            route = ROUTES[kind]
        except KeyError:
            raise ServerError(
                f"unknown job kind {kind!r}; expected one of {sorted(ROUTES)}"
            ) from None
        return self._json(
            "POST", f"/v1/{route}", spec or {},
            raise_for_reject=raise_for_reject,
        )

    def submit_sweep(self, **spec) -> dict:
        return self.submit(workloads.SWEEP.kind, spec)

    def submit_policies(self, **spec) -> dict:
        return self.submit(workloads.POLICIES.kind, spec)

    def submit_campaign(self, **spec) -> dict:
        return self.submit(workloads.CAMPAIGN.kind, spec)

    def submit_cloud(self, **spec) -> dict:
        return self.submit(workloads.CLOUD.kind, spec)

    def submit_probe(self, **spec) -> dict:
        return self.submit("probe", spec)

    # -- job table ------------------------------------------------------
    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> List[dict]:
        return self._json("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._json("DELETE", f"/v1/jobs/{job_id}")

    def job_profile(self, job_id: str) -> dict:
        """The performance-attribution document of a profiled job.

        404 (no ``"profile": true`` in the spec, or not finished yet)
        raises :class:`~repro.errors.ServerError`.
        """
        return self._json("GET", f"/v1/jobs/{job_id}/profile")

    def wait(
        self, job_id: str, timeout: float = 120.0, poll: float = 0.05
    ) -> dict:
        """Poll until the job settles; returns the full job document."""
        deadline = time.monotonic() + timeout
        while True:
            document = self.job(job_id)
            if document["status"] in ("done", "failed", "cancelled"):
                return document
            if time.monotonic() >= deadline:
                raise ServerError(
                    f"job {job_id} did not settle within {timeout:g} s "
                    f"(last status: {document['status']!r})"
                )
            time.sleep(poll)

    def run(self, kind: str, spec: Optional[dict] = None, **wait_kwargs):
        """Submit and wait; raises on a failed or cancelled job."""
        job = self.submit(kind, spec)
        done = self.wait(job["id"], **wait_kwargs)
        if done["status"] != "done":
            raise ServerError(
                f"job {done['id']} ended {done['status']}: {done['error']}"
            )
        return done

    def sweep_text(self, **spec) -> str:
        """Run a sweep job and return its rendered grid text."""
        return self.run(workloads.SWEEP.kind, spec)["result"]["text"]

    def cloud_text(self, **spec) -> str:
        """Run a cloud comparison job and return its rendered text."""
        return self.run(workloads.CLOUD.kind, spec)["result"]["text"]

    # -- introspection --------------------------------------------------
    def self_report(self) -> dict:
        return self._json("GET", "/v1/self")

    def healthz(self) -> dict:
        return self._json("GET", "/healthz")

    def readyz(self) -> bool:
        return self._json("GET", "/readyz", ok=(200, 503)).get(
            "ready", False
        )

    def metrics_text(self) -> str:
        status, raw = self._request("GET", "/metrics")
        if status != 200:
            raise ServerError(f"GET /metrics -> {status}")
        return raw.decode("utf-8")

    # -- events (SSE) ---------------------------------------------------
    def events(
        self, count: int = 1, timeout: float = 10.0
    ) -> List[Tuple[str, dict]]:
        """Collect *count* events from ``/v1/events`` (including hello).

        Returns up to *count* ``(event, data)`` pairs; stops early when
        *timeout* elapses between events.
        """
        collected: List[Tuple[str, dict]] = []
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=timeout
            ) as sock:
                sock.sendall(
                    b"GET /v1/events HTTP/1.1\r\n"
                    b"host: repro\r\naccept: text/event-stream\r\n\r\n"
                )
                for event in _parse_sse(sock, timeout):
                    collected.append(event)
                    if len(collected) >= count:
                        break
        except OSError as exc:
            if not collected:
                raise ServerError(
                    f"cannot stream events from {self.host}:{self.port}: "
                    f"{exc}"
                ) from exc
        return collected


def _parse_sse(sock, timeout: float) -> Iterator[Tuple[str, dict]]:
    """Yield ``(event, data)`` pairs from a raw SSE socket."""
    handle = sock.makefile("rb")
    # Skip the response head.
    while True:
        line = handle.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
    event: Optional[str] = None
    try:
        while True:
            line = handle.readline()
            if not line:
                return
            text = line.decode("utf-8").rstrip("\r\n")
            if text.startswith("event: "):
                event = text[len("event: "):]
            elif text.startswith("data: ") and event is not None:
                yield event, json.loads(text[len("data: "):])
                event = None
    except (OSError, ValueError):
        return
