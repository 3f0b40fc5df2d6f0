"""The evaluation server: routes, streaming, and the self-model.

:class:`ReproServer` binds the pieces together on one asyncio event
loop:

* ``POST /v1/<route>`` — one route per job kind (such as
  ``/v1/sweeps``; see :data:`~repro.server.work.ROUTES`): validate the
  JSON spec (400 on a bad one), admit through the
  M/M/c/K controller (503 + ``server_admission_rejections_total``
  when full), and answer 202 with the job document;
* ``GET /v1/jobs`` / ``GET /v1/jobs/{id}`` / ``DELETE /v1/jobs/{id}``
  — job table, job status/result, cooperative cancellation;
* ``GET /v1/jobs/{id}/profile`` — the performance-attribution document
  of a job submitted with ``"profile": true`` (404 otherwise);
* ``GET /v1/self`` — the server's own analytic M/M/c/K availability at
  its measured arrival/service rates, cross-checked against the
  observed rejection ratio;
* ``GET /metrics`` — the shared :class:`~repro.obs.MetricsRegistry` in
  OpenMetrics text (the same exposition ``repro stats --format
  openmetrics`` prints), including the ``server_*`` families;
* ``GET /v1/events`` — SSE stream of job transitions, engine progress
  heartbeats, admission rejections, periodic server heartbeats, and
  :class:`~repro.obs.SLOMonitor` burn-rate state;
* ``GET /healthz`` / ``GET /readyz`` — liveness and readiness.

The admission SLO: every submission is a session against the
``slo_objective`` availability target (accepted = success, 503 =
failure) on the server's uptime timeline, so the burn-rate alerting
built for the paper's model watches the server itself.

:class:`ServerThread` runs a server on a background thread with its
own event loop — the harness used by tests, the example, and the
throughput benchmark.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import re
import threading
import time
from dataclasses import asdict
from typing import Callable, List, Optional

from ..engine.executor import shutdown_pool
from ..errors import ReproError, ServerError, ValidationError
from .http import (
    HttpProtocolError,
    Request,
    Response,
    SSEStream,
    json_response,
    read_request,
    write_response,
)
from .jobs import JobManager
from .work import ROUTES, execute_job, parse_spec

__all__ = ["ReproServer", "ServerThread"]

#: POST route segment -> job kind.
_KINDS = {route: kind for kind, route in ROUTES.items()}


def _slo_summary_dict(summary) -> dict:
    """An :class:`~repro.obs.slo.SLOSummary` as JSON-safe data."""
    data = asdict(summary)
    for key, value in list(data.items()):
        if isinstance(value, float) and math.isnan(value):
            data[key] = None
    data["burn_rates"] = [
        None if math.isnan(rate) else rate for rate in summary.burn_rates
    ]
    if summary.confidence_interval is not None:
        data["confidence_interval"] = list(summary.confidence_interval)
    return data


class ReproServer:
    """The availability evaluation service (see module docstring).

    Parameters
    ----------
    host / port:
        Bind address; port 0 picks an ephemeral port, readable from
        :attr:`port` after :meth:`start`.
    slots:
        Concurrent evaluation slots ``c`` (``repro serve --workers``).
    queue_limit:
        Admission capacity ``K`` (running + queued jobs).
    journal:
        Optional job-journal path; a restart against the same path
        restores finished results and re-runs interrupted jobs.
    metrics:
        Shared registry for ``/metrics``; a private one by default.
    slo_objective:
        Admission availability objective watched by the SLO monitor.
    heartbeat_interval:
        Seconds between periodic SSE ``heartbeat`` events.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        slots: int = 2,
        queue_limit: int = 8,
        journal=None,
        metrics=None,
        slo_objective: float = 0.999,
        heartbeat_interval: float = 2.0,
        runner: Callable[..., dict] = execute_job,
    ):
        from .._validation import check_in_range, check_positive
        from ..obs import MetricsRegistry, SLOMonitor

        if not isinstance(port, int) or not 0 <= port <= 65535:
            raise ValidationError(f"port must be in 0..65535, got {port!r}")
        self.host = host
        self.port = port
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.jobs = JobManager(
            runner,
            slots=slots,
            capacity=queue_limit,
            journal=journal,
            metrics=self.metrics,
        )
        check_in_range(slo_objective, 0.0, 1.0, "slo_objective")
        check_positive(heartbeat_interval, "heartbeat_interval")
        self._heartbeat_interval = heartbeat_interval
        self.slo = SLOMonitor(
            objective=slo_objective,
            windows=(60.0, 600.0),
            burn_threshold=5.0,
            name="admission",
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._started_monotonic: Optional[float] = None
        self._started_wall: Optional[float] = None
        self._routes = self._build_routes()

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start workers; resolves :attr:`port`."""
        await self.jobs.start()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        except OSError as exc:
            await self.jobs.stop()
            raise ServerError(
                f"cannot bind {self.host}:{self.port}: {exc}"
            ) from exc
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()
        self._started_wall = time.time()
        self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() was not awaited"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the socket and stop workers (journal stays resumable)."""
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._heartbeat_task
            self._heartbeat_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Open connections (idle keep-alives, SSE streams) outlive the
        # listening socket; cancel them so shutdown leaves no stragglers.
        for task in list(self._connections):
            task.cancel()
        await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        await self.jobs.stop()

    def uptime(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    # -- routing --------------------------------------------------------
    def _build_routes(self):
        return [
            ("POST", re.compile(f"^/v1/({'|'.join(_KINDS)})$"),
             "/v1/{kind}", self._handle_submit),
            ("GET", re.compile(r"^/v1/jobs$"), "/v1/jobs",
             self._handle_jobs),
            ("GET", re.compile(r"^/v1/jobs/([^/]+)$"), "/v1/jobs/{id}",
             self._handle_job),
            ("GET", re.compile(r"^/v1/jobs/([^/]+)/profile$"),
             "/v1/jobs/{id}/profile", self._handle_job_profile),
            ("DELETE", re.compile(r"^/v1/jobs/([^/]+)$"), "/v1/jobs/{id}",
             self._handle_cancel),
            ("GET", re.compile(r"^/v1/self$"), "/v1/self",
             self._handle_self),
            ("GET", re.compile(r"^/v1/events$"), "/v1/events",
             self._handle_events),
            ("GET", re.compile(r"^/metrics$"), "/metrics",
             self._handle_metrics),
            ("GET", re.compile(r"^/healthz$"), "/healthz",
             self._handle_healthz),
            ("GET", re.compile(r"^/readyz$"), "/readyz",
             self._handle_readyz),
        ]

    def _route(self, request: Request):
        allowed: List[str] = []
        for method, pattern, label, handler in self._routes:
            match = pattern.match(request.path)
            if match is None:
                continue
            if method != request.method:
                allowed.append(method)
                continue
            request.params = {
                str(index): value
                for index, value in enumerate(match.groups(), start=1)
                if value is not None
            }
            return label, handler
        if allowed:
            return request.path, _method_not_allowed(allowed)
        return request.path, None

    # -- connection handling --------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while await self._serve_one(reader, writer):
                pass
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels open connections (see stop()); end the
            # task normally so the streams callback that retrieves its
            # exception does not trip over the cancellation.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_one(self, reader, writer) -> bool:
        """Serve one request; True when the connection can be reused."""
        try:
            request = await read_request(reader)
        except HttpProtocolError as exc:
            await write_response(
                writer,
                json_response(exc.status, {"error": str(exc)}),
                keep_alive=False,
            )
            return False
        if request is None:
            return False

        started = time.perf_counter()
        label, handler = self._route(request)
        if handler is None:
            response: Response = json_response(
                404, {"error": f"no route for {request.method} {request.path}"}
            )
        elif handler == self._handle_events:
            # SSE claims the connection; account for it, then stream.
            self._observe_request(request.method, label, 200, started)
            await self._handle_events(request, writer)
            return False
        else:
            try:
                response = await handler(request)
            except HttpProtocolError as exc:
                response = json_response(exc.status, {"error": str(exc)})
            except ValidationError as exc:
                response = json_response(400, {"error": str(exc)})
            except KeyError as exc:
                response = json_response(404, {"error": str(exc.args[0])})
            except ReproError as exc:
                response = json_response(400, {"error": str(exc)})
            except Exception as exc:  # never kill the connection handler
                response = json_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )
        keep_alive = request.keep_alive
        await write_response(writer, response, keep_alive=keep_alive)
        self._observe_request(request.method, label, response.status, started)
        return keep_alive

    def _observe_request(
        self, method: str, route: str, code: int, started: float
    ) -> None:
        self.metrics.counter(
            "server_requests",
            help="HTTP requests served, by method, route, and status.",
            method=method,
            route=route,
            code=str(code),
        ).inc()
        self.metrics.histogram(
            "server_request_seconds",
            help="Request handling latency in seconds.",
            route=route,
        ).observe(time.perf_counter() - started)

    # -- handlers -------------------------------------------------------
    async def _handle_submit(self, request: Request) -> Response:
        kind = _KINDS[request.params["1"]]
        spec = parse_spec(kind, request.json())  # ValidationError -> 400
        job = self.jobs.submit(kind, spec)
        accepted = job is not None
        self.slo.session(self.uptime(), accepted)
        self._emit_slo()
        if not accepted:
            return json_response(503, {
                "error": (
                    "admission queue is full "
                    f"({self.jobs.admission.in_system}/"
                    f"{self.jobs.admission.capacity} jobs in system); "
                    "retry after a job resolves"
                ),
                "rejected": True,
                "kind": kind,
            })
        return json_response(202, job.to_dict(include_result=False))

    async def _handle_jobs(self, request: Request) -> Response:
        return json_response(200, {
            "jobs": [
                job.to_dict(include_result=False)
                for job in self.jobs.jobs()
            ],
        })

    async def _handle_job(self, request: Request) -> Response:
        job = self.jobs.get(request.params["1"])  # KeyError -> 404
        return json_response(200, job.to_dict())

    async def _handle_job_profile(self, request: Request) -> Response:
        job = self.jobs.get(request.params["1"])  # KeyError -> 404
        result = job.result if isinstance(job.result, dict) else {}
        profile = result.get("profile")
        if profile is None:
            return json_response(404, {
                "error": (
                    f"job {job.id!r} has no profile; submit with "
                    '"profile": true in the spec (status: '
                    f"{job.status})"
                ),
            })
        return json_response(200, profile)

    async def _handle_cancel(self, request: Request) -> Response:
        job = self.jobs.cancel(request.params["1"])  # KeyError -> 404
        return json_response(200, job.to_dict(include_result=False))

    async def _handle_self(self, request: Request) -> Response:
        report = self.jobs.admission.report()
        report["uptime_seconds"] = self.uptime()
        report["slo"] = _slo_summary_dict(self.slo.summary())
        return json_response(200, report)

    async def _handle_metrics(self, request: Request) -> Response:
        text = self.metrics.render_openmetrics() + "\n"
        return Response(
            status=200,
            body=text.encode("utf-8"),
            content_type=(
                "application/openmetrics-text; version=1.0.0; charset=utf-8"
            ),
        )

    async def _handle_healthz(self, request: Request) -> Response:
        return json_response(200, {
            "status": "ok",
            "uptime_seconds": self.uptime(),
        })

    async def _handle_readyz(self, request: Request) -> Response:
        ready = self._server is not None
        return json_response(200 if ready else 503, {"ready": ready})

    async def _handle_events(self, request: Request, writer) -> None:
        stream = SSEStream(writer)
        queue = self.jobs.subscribe()
        try:
            await stream.start()
            await stream.send("hello", {
                "server": "repro",
                "uptime_seconds": self.uptime(),
                "in_system": self.jobs.admission.in_system,
                "capacity": self.jobs.admission.capacity,
            })
            while True:
                event, data = await queue.get()
                await stream.send(event, data)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            self.jobs.unsubscribe(queue)

    # -- periodic heartbeat + SLO state ---------------------------------
    def _emit_slo(self) -> None:
        self.jobs._emit("slo", _slo_summary_dict(self.slo.summary()))

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self._heartbeat_interval)
            self.jobs._emit("heartbeat", {
                "uptime_seconds": self.uptime(),
                "in_system": self.jobs.admission.in_system,
                "capacity": self.jobs.admission.capacity,
                "arrivals": self.jobs.admission.arrivals,
                "rejections": self.jobs.admission.rejections,
            })
            self._emit_slo()


def _method_not_allowed(allowed: List[str]):
    async def handler(request: Request) -> Response:
        return json_response(405, {
            "error": (
                f"{request.method} is not allowed on {request.path}; "
                f"allowed: {sorted(set(allowed))}"
            ),
        })

    return handler


class ServerThread:
    """A :class:`ReproServer` on a background thread, for harnesses.

    ::

        with ServerThread(slots=2, queue_limit=8) as handle:
            client = ServerClient("127.0.0.1", handle.port)
            ...

    The thread owns its own event loop; ``__exit__`` stops the server,
    drains the default thread-pool executor, joins the thread, and shuts
    down the worker pools its job threads held.
    Journals written by the server stay resumable across restarts.
    """

    def __init__(self, **kwargs):
        self._kwargs = kwargs
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[ReproServer] = None

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self.server = ReproServer(**self._kwargs)
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surfaced in __enter__
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._main, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ServerError("server thread did not become ready in 30 s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30.0)
        if self._thread.is_alive():  # pragma: no cover - diagnostics
            raise ServerError("server thread did not stop in 30 s")
        self._thread = None
        # Each job thread held a worker pool; their workers go with the
        # server.
        shutdown_pool()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
