"""The thin HTTP client for the fleet front-end (stdlib ``urllib`` only).

Spoken by three parties: ``repro submit --url`` (post a job
specification), ``repro status --url`` (read job status and live
leases), and ``repro worker`` (fetch open tasks, publish results).
Every method is one JSON round-trip; transport failures surface as
:class:`FleetClientError` so callers can distinguish "front-end is
down" from evaluation errors.

Transient transport faults — connection refused/reset
(``URLError``/``OSError``) and 5xx answers — are retried with capped
exponential backoff before surfacing, because a worker fleet rides out
front-end restarts all the time and every server endpoint is idempotent
per task id.  4xx answers and malformed JSON are terminal on the first
attempt: repeating a request the server already understood and rejected
cannot change the answer.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any

from repro.core.faults import EvaluationFailure

__all__ = ["FleetClient", "FleetClientError"]


class FleetClientError(RuntimeError):
    """The front-end was unreachable or answered with an error status.

    ``retryable`` distinguishes transient transport faults (connection
    errors, 5xx) from terminal answers (4xx, malformed JSON); the client
    has already exhausted its retry budget by the time one escapes.
    """

    def __init__(self, message: str, retryable: bool = False) -> None:
        super().__init__(message)
        self.retryable = retryable


#: ceiling on the per-attempt retry backoff, in seconds
MAX_RETRY_BACKOFF = 2.0


class FleetClient:
    """Talks to one fleet front-end at ``url`` (e.g. ``http://host:8123``).

    ``retries`` transient transport failures are absorbed per request
    with capped exponential backoff (``retry_backoff * 2**attempt``,
    capped at ``MAX_RETRY_BACKOFF`` seconds); ``retries=0`` restores
    single-shot behavior.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 60.0,
        retries: int = 2,
        retry_backoff: float = 0.2,
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _request(
        self,
        path: str,
        payload: dict[str, Any] | None = None,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        attempt = 0
        while True:
            try:
                return self._attempt(path, payload, timeout)
            except FleetClientError as exc:
                if not exc.retryable or attempt >= self.retries:
                    raise
                time.sleep(min(self.retry_backoff * (2.0 ** attempt), MAX_RETRY_BACKOFF))
                attempt += 1

    def _attempt(
        self,
        path: str,
        payload: dict[str, Any] | None = None,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        request = urllib.request.Request(
            f"{self.url}{path}",
            data=None if payload is None else json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="GET" if payload is None else "POST",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout
            ) as response:
                data = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error", "")
            except Exception:
                pass
            raise FleetClientError(
                f"{request.method} {path} -> HTTP {exc.code}" + (f": {detail}" if detail else ""),
                retryable=exc.code >= 500,
            ) from None
        except json.JSONDecodeError as exc:
            # The server answered 200 with garbage: retrying cannot help.
            raise FleetClientError(f"{request.method} {path} failed: {exc}") from None
        except (urllib.error.URLError, OSError) as exc:
            raise FleetClientError(
                f"{request.method} {path} failed: {exc}", retryable=True
            ) from None
        if not isinstance(data, dict):
            raise FleetClientError(f"{request.method} {path}: expected a JSON object")
        return data

    # ------------------------------------------------------------------ #
    # job side
    # ------------------------------------------------------------------ #
    def health(self) -> dict[str, Any]:
        return self._request("/api/health")

    def submit(self, spec: dict[str, Any]) -> str:
        """Post one job specification; returns the assigned job id."""
        return str(self._request("/api/jobs", payload=dict(spec))["id"])

    def jobs(self) -> list[dict[str, Any]]:
        return list(self._request("/api/jobs")["jobs"])

    def job(self, job_id: str) -> dict[str, Any]:
        return self._request(f"/api/jobs/{job_id}")

    def result(self, job_id: str) -> dict[str, Any]:
        """The finished job's full result (raises while it is running)."""
        return self._request(f"/api/jobs/{job_id}/result")

    def events(self, job_id: str, since: int = 0) -> list[dict[str, Any]]:
        return list(self._request(f"/api/jobs/{job_id}/events?since={int(since)}")["events"])

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def tasks(self, wait: float = 0.0) -> list[dict[str, Any]]:
        """Open evaluation tasks; ``wait`` long-polls until one appears."""
        suffix = f"?wait={wait:g}" if wait > 0 else ""
        # The HTTP timeout must outlive the server-side long-poll.
        return list(
            self._request(f"/api/tasks{suffix}", timeout=self.timeout + wait)["tasks"]
        )

    def publish(self, task_id: str, value: float, duration: float = 0.0) -> bool:
        """Publish a computed result; False if the task was already gone."""
        data = self._request(
            f"/api/tasks/{task_id}/publish",
            payload={"value": float(value), "duration": float(duration)},
        )
        return bool(data.get("resolved"))

    def fail(self, task_id: str, failure: EvaluationFailure) -> bool:
        """Report a failed evaluation; False if the task was already gone."""
        data = self._request(f"/api/tasks/{task_id}/fail", payload=failure.to_dict())
        return bool(data.get("failed"))
