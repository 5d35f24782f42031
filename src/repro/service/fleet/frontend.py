"""The fleet's stdlib-only HTTP face: JSON over ``http.server``.

One small threaded server exposes the fleet to the outside world:

====== ============================== =======================================
verb   path                           meaning
====== ============================== =======================================
GET    ``/api/health``                liveness + job/task/store counts
POST   ``/api/jobs``                  submit a job specification
GET    ``/api/jobs``                  status of every known job
GET    ``/api/jobs/<id>``             status of one job
GET    ``/api/jobs/<id>/result``      the finished job's full result
GET    ``/api/jobs/<id>/events``      progress events (``?since=<seq>``)
GET    ``/api/tasks``                 open evaluation tasks (``?wait=<s>``
                                      long-polls until one appears)
POST   ``/api/tasks/<id>/publish``    worker publishes ``{value, duration}``
POST   ``/api/tasks/<id>/fail``       worker reports an evaluation failure
====== ============================== =======================================

Publishing to an unknown or already-resolved task answers ``{"resolved":
false}`` with status 200: two workers racing a lease takeover collide
here by design, and the loser's publish must be benign.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.core.async_driver import RunConfig
from repro.core.faults import EvaluationFailure
from repro.core.serialization import result_to_dict
from repro.service.fleet.server import FleetServer

__all__ = ["FleetFrontend"]

#: upper bound on one long-poll request, so a dead client cannot pin a
#: handler thread arbitrarily long
MAX_TASK_WAIT = 30.0

SubmitHandler = Callable[[dict[str, Any]], str]
StatusView = Callable[[], list[dict[str, Any]]]


class _FleetHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    frontend: "FleetFrontend"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: _FleetHTTPServer

    # -- plumbing ------------------------------------------------------- #
    def log_message(self, format: str, *args: Any) -> None:
        """Silence the default stderr access log."""

    def _send(self, code: int, payload: Any) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        data = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    # -- dispatch ------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, verb: str) -> None:
        front = self.server.frontend
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        query = parse_qs(url.query)
        try:
            handled = front.handle(self, verb, parts, query)
        except (ValueError, json.JSONDecodeError) as exc:
            self._send(400, {"error": str(exc)})
            return
        except Exception as exc:  # a broken handler must not kill the thread
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        if not handled:
            self._send(404, {"error": f"no such endpoint: {verb} {url.path}"})


class FleetFrontend:
    """Serves a :class:`~repro.service.fleet.server.FleetServer` over HTTP.

    Parameters
    ----------
    server:
        The fleet server whose jobs, task board and store are exposed.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`url` — the integration tests rely on this).
    submit:
        Callback turning a posted job specification into a job id.  The
        CLI wires this to its spool + request factory; without one, POST
        ``/api/jobs`` answers 503.
    status_view:
        Override for the job listing (defaults to the server's live
        snapshot; the CLI merges in spooled jobs the server has not
        picked up yet).
    """

    def __init__(
        self,
        server: FleetServer,
        host: str = "127.0.0.1",
        port: int = 0,
        submit: SubmitHandler | None = None,
        status_view: StatusView | None = None,
    ) -> None:
        self.server = server
        self.submit = submit
        self.status_view: StatusView = (
            status_view if status_view is not None else server.snapshot
        )
        self._http = _FleetHTTPServer((host, port), _Handler)
        self._http.frontend = self
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return str(self._http.server_address[0])

    @property
    def port(self) -> int:
        return int(self._http.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "FleetFrontend":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._http.serve_forever,
                name="fleet-frontend",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._http.shutdown()
            self._thread.join()
            self._thread = None
        self._http.server_close()

    def __enter__(self) -> "FleetFrontend":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def handle(
        self,
        request: _Handler,
        verb: str,
        parts: list[str],
        query: dict[str, list[str]],
    ) -> bool:
        """Route one request; returns False for an unknown endpoint."""
        if len(parts) < 2 or parts[0] != "api":
            return False
        head, rest = parts[1], parts[2:]
        if head == "health" and verb == "GET" and not rest:
            request._send(
                200,
                {
                    "status": "ok",
                    "jobs": len(self.status_view()),
                    "open_tasks": len(self.server.board),
                    "store_entries": len(self.server.store),
                },
            )
            return True
        if head == "jobs":
            return self._handle_jobs(request, verb, rest, query)
        if head == "tasks":
            return self._handle_tasks(request, verb, rest, query)
        return False

    def _job_record(self, job_id: str) -> dict[str, Any] | None:
        try:
            return self.server.get(job_id).to_dict()
        except KeyError:
            for record in self.status_view():
                if record.get("id") == job_id:
                    return record
            return None

    def _handle_jobs(
        self,
        request: _Handler,
        verb: str,
        rest: list[str],
        query: dict[str, list[str]],
    ) -> bool:
        if not rest:
            if verb == "POST":
                if self.submit is None:
                    request._send(503, {"error": "this front-end does not accept submissions"})
                    return True
                spec = request._body()
                RunConfig.from_dict(spec.get("config") or {})  # a bad one is a 400
                job_id = self.submit(spec)
                request._send(200, {"id": job_id})
                return True
            if verb == "GET":
                request._send(200, {"jobs": self.status_view()})
                return True
            return False
        job_id, tail = rest[0], rest[1:]
        if verb != "GET":
            return False
        record = self._job_record(job_id)
        if record is None:
            request._send(404, {"error": f"unknown job {job_id!r}"})
            return True
        if not tail:
            request._send(200, record)
            return True
        if tail == ["result"]:
            try:
                job = self.server.get(job_id)
            except KeyError:
                job = None
            if job is None or job.result is None:
                request._send(409, {"error": f"job {job_id!r} has no result yet", "job": record})
                return True
            request._send(200, result_to_dict(job.result))
            return True
        if tail == ["events"]:
            since = int(query.get("since", ["0"])[0])
            return self._send_events(request, job_id, since)
        return False

    def _send_events(self, request: _Handler, job_id: str, since: int) -> bool:
        try:
            job = self.server.get(job_id)
        except KeyError:
            request._send(200, {"events": []})
            return True
        events = [
            {"seq": e.seq, "kind": e.kind, "message": e.message, "payload": e.payload}
            for e in list(job.events)
            if e.seq >= since
        ]
        request._send(200, {"events": events})
        return True

    def _handle_tasks(
        self,
        request: _Handler,
        verb: str,
        rest: list[str],
        query: dict[str, list[str]],
    ) -> bool:
        if not rest and verb == "GET":
            wait = min(float(query.get("wait", ["0"])[0]), MAX_TASK_WAIT)
            tasks = self.server.board.wait_for_tasks(wait)
            request._send(200, {"tasks": [task.to_dict() for task in tasks]})
            return True
        if len(rest) == 2 and verb == "POST":
            task_id, action = rest
            body = request._body()
            if action == "publish":
                resolved = self.server.board.resolve(
                    task_id,
                    float(body["value"]),
                    float(body.get("duration", 0.0)),
                )
                request._send(200, {"resolved": resolved})
                return True
            if action == "fail":
                failed = self.server.board.fail(task_id, EvaluationFailure.from_dict(body))
                request._send(200, {"failed": failed})
                return True
        return False
