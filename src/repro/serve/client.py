"""Blocking HTTP client for the campaign service.

The client half of ``repro submit`` / ``status`` / ``results`` /
``cancel`` / ``shutdown``: a thin :mod:`http.client` wrapper (stdlib,
matching the server's no-dependency rule) that decodes JSON bodies and
turns transport failures and error statuses into
:class:`~repro.errors.ServeError` with the HTTP status attached.

Self-healing: the client assumes the network is hostile (the
:mod:`repro.faults.netchaos` proxy makes it so in tests) and repairs
what is safe to repair:

* **idempotent requests retry.** GET and DELETE carry no submission
  state, so a transport failure (connection refused/reset, timeout), a
  503 load-shed answer, or a truncated/garbled response body (there is
  no Content-Length on the wire — a mid-response cut reads as a short
  body that fails to parse) is retried up to ``retries`` times with
  seeded jittered exponential backoff. POST is *never* retried — a
  duplicate submit would start a second campaign;
* **the event stream reconnects on truncation.** A torn or corrupt
  ndjson line, or a connection cut mid-stream, triggers a reconnect;
  the server replays its full backlog, so the client skips the lines
  it already yielded and resumes seamlessly. A stream that closes
  cleanly *before* the campaign is terminal is treated as a drop at a
  line boundary and also reconnects;
* :meth:`ServeClient.wait` polls with jittered exponential backoff
  (``poll_s`` floor, ``poll_cap_s`` cap) instead of a fixed-rate spin,
  so a thousand long-running campaign watchers do not hammer the
  server four times a second each.
"""

import http.client
import itertools
import json
import socket
import time

from repro.errors import ServeError
from repro.experiments.watchdog import RetryBackoff
from repro.serve import DEFAULT_PORT

#: Methods safe to retry: no request state is created server-side.
_IDEMPOTENT = ("GET", "DELETE")

#: Terminal campaign states (mirrors the server's).
_TERMINAL = ("done", "cancelled")


class _StreamBroken(Exception):
    """Internal: the event stream tore mid-flight; reconnect."""


class ServeClient:
    """One server endpoint; connections are per-request (the server
    closes after every response).

    ``retries`` bounds both idempotent-request retries and event-
    stream reconnects, which wait as the engine's retries do (see
    :class:`~repro.experiments.watchdog.RetryBackoff`);
    ``backoff_seed`` makes the jittered backoff schedule reproducible
    (fleet-wide decorrelation still holds — give each client its own
    seed).
    """

    def __init__(self, host="127.0.0.1", port=DEFAULT_PORT, timeout=10.0,
                 retries=2, backoff_base_s=0.1, backoff_cap_s=2.0,
                 backoff_seed=0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self._backoff = RetryBackoff(
            backoff_base_s, backoff_cap_s, backoff_seed
        )

    # -- transport -----------------------------------------------------

    def _once(self, method, path, body, headers, timeout):
        """One request/response exchange; returns (status, data)."""
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout,
        )
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _request(self, method, path, payload=None, timeout=None):
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        retriable = method in _IDEMPOTENT
        attempt = 0
        while True:
            attempt += 1
            status = None
            try:
                status, data = self._once(
                    method, path, body, headers, timeout,
                )
            except (OSError, socket.timeout,
                    http.client.HTTPException) as exc:
                if retriable and attempt <= self.retries:
                    time.sleep(self._backoff.delay_for(attempt))
                    continue
                raise ServeError(
                    "cannot reach repro serve at {}:{} ({})".format(
                        self.host, self.port, exc
                    )
                )
            if status == 503 and retriable and attempt <= self.retries:
                # Load shedding: the server answered before reading the
                # request, so backing off and retrying is always safe.
                time.sleep(self._backoff.delay_for(attempt))
                continue
            try:
                # Every endpoint answers with a JSON body; an empty one
                # means the connection was cut between status line and
                # body (http.client reads EOF-terminated headers
                # without complaint), so it is torn, not a document.
                if not data:
                    raise ValueError("empty response body")
                document = json.loads(data.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                # Responses carry no Content-Length (the body ends at
                # EOF), so a connection cut mid-response looks like a
                # short body that fails to parse — heal it like any
                # other transport failure when the method allows.
                if retriable and attempt <= self.retries:
                    time.sleep(self._backoff.delay_for(attempt))
                    continue
                raise ServeError(
                    "malformed response from {} {} (status {})".format(
                        method, path, status
                    ),
                    status=status,
                )
            break
        if status >= 400:
            message = document.get("error") if isinstance(document, dict) \
                else None
            raise ServeError(
                message or "{} {} failed with status {}".format(
                    method, path, status
                ),
                status=status,
            )
        return document

    # -- endpoints -----------------------------------------------------

    def health(self):
        return self._request("GET", "/")

    def submit(self, spec):
        """Submit a campaign spec; returns its status payload."""
        return self._request("POST", "/campaigns", payload=spec)

    def campaigns(self):
        return self._request("GET", "/campaigns")

    def status(self, run_id):
        return self._request("GET", "/campaigns/{}".format(run_id))

    def results(self, run_id):
        """The final records document (raises 409 while running)."""
        return self._request(
            "GET", "/campaigns/{}/results".format(run_id)
        )

    def cancel(self, run_id):
        return self._request("DELETE", "/campaigns/{}".format(run_id))

    def pool(self):
        return self._request("GET", "/pool")

    def set_pool(self, workers):
        """Hotplug the worker pool to ``workers`` processes."""
        return self._request(
            "POST", "/pool", payload={"workers": workers},
        )

    def shutdown(self):
        return self._request("POST", "/shutdown")

    # -- conveniences --------------------------------------------------

    def wait(self, run_id, timeout=600.0, poll_s=0.2, poll_cap_s=2.0):
        """Poll until the campaign reaches a terminal state.

        Polls with jittered exponential backoff: the first sleep is
        about ``poll_s`` (the floor — a short campaign is still seen
        finishing promptly), doubling up to ``poll_cap_s``, each
        scaled by seeded jitter (a
        :class:`~repro.experiments.watchdog.RetryBackoff`, so
        ``poll_s > poll_cap_s`` raises
        :class:`~repro.errors.ConfigError`). Returns the final status
        payload; raises :class:`~repro.errors.ServeError` on timeout.
        """
        deadline = time.monotonic() + timeout
        backoff = RetryBackoff(poll_s, poll_cap_s, self._backoff.seed)
        for polls in itertools.count(1):
            status = self.status(run_id)
            if status["state"] in _TERMINAL:
                return status
            now = time.monotonic()
            if now >= deadline:
                raise ServeError(
                    "campaign {} still {} after {:.0f}s ({} of {} "
                    "cells)".format(
                        run_id, status["state"], timeout,
                        status["completed"], status["total"],
                    )
                )
            time.sleep(min(
                backoff.delay_for(polls), max(0.0, deadline - now),
            ))

    def events(self, run_id, timeout=600.0):
        """Generator over the campaign's ndjson progress stream.

        Reconnects on truncation: a torn/corrupt line or a mid-stream
        disconnect re-opens the stream (up to ``retries`` times with
        backoff), skips the lines already yielded (the server replays
        its backlog on every connect), and continues. A clean close
        before the campaign is terminal counts as a drop too — the cut
        just happened to land on a line boundary.
        """
        seen = 0
        reconnects = 0
        while True:
            try:
                for item in self._stream_once(run_id, timeout, skip=seen):
                    seen += 1
                    yield item
                # Clean close. Terminal campaign => genuinely done;
                # otherwise the stream was cut at a line boundary.
                if self.status(run_id)["state"] in _TERMINAL:
                    return
                raise _StreamBroken(
                    "stream closed before the campaign finished"
                )
            except _StreamBroken as exc:
                reconnects += 1
                if reconnects > self.retries:
                    raise ServeError(
                        "event stream from {}:{} broke ({}) and did not "
                        "recover after {} reconnect(s)".format(
                            self.host, self.port, exc, self.retries
                        )
                    )
                time.sleep(self._backoff.delay_for(reconnects))

    def _stream_once(self, run_id, timeout, skip):
        """One connection's worth of events, skipping replayed backlog.

        Raises :class:`_StreamBroken` on anything a reconnect can heal
        (transport failure, torn line, corrupt line, 503);
        :class:`~repro.errors.ServeError` on definitive refusals (404).
        """
        try:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=timeout,
            )
        except (OSError, socket.timeout) as exc:
            raise _StreamBroken(str(exc))
        try:
            try:
                conn.request(
                    "GET", "/campaigns/{}/events".format(run_id),
                )
                response = conn.getresponse()
            except (OSError, socket.timeout,
                    http.client.HTTPException) as exc:
                raise _StreamBroken(str(exc))
            if response.status == 503:
                raise _StreamBroken("server shedding load (503)")
            if response.status >= 400:
                data = response.read()
                try:
                    message = json.loads(data.decode("utf-8"))["error"]
                except Exception:
                    message = "event stream failed with status " \
                        "{}".format(response.status)
                raise ServeError(message, status=response.status)
            index = 0
            while True:
                try:
                    raw = response.readline()
                except (OSError, socket.timeout,
                        http.client.HTTPException) as exc:
                    raise _StreamBroken(str(exc))
                if not raw:
                    return  # clean end of stream
                if not raw.endswith(b"\n"):
                    raise _StreamBroken("torn final line")
                line = raw.strip()
                if not line:
                    continue
                try:
                    item = json.loads(line.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    raise _StreamBroken("corrupt event line")
                index += 1
                if index <= skip:
                    continue  # backlog replayed on reconnect
                yield item
        finally:
            conn.close()
