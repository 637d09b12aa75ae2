"""The solve-service daemon: asyncio front end over a thread pool.

:class:`SolverService` is a long-lived server that accepts the
versioned JSON requests of :mod:`repro.service.protocol` over two
transports — NDJSON on a Unix socket and HTTP/1.1 on TCP (chunked
NDJSON responses) — and executes them on a pool of worker threads that
reuse the existing engine machinery (:func:`~repro.engine.batch
.iter_batch` for single solves, :func:`~repro.engine.sweeps.iter_sweep`
for plans).  All workers share **one** result store (wrapped in
:class:`~repro.engine.store.ThreadSafeStore`), so concurrent clients
dedupe against the same hot cache and a warm re-submit performs zero
solver invocations.

Robustness model:

* the request queue is bounded (``queue_size``) — an overflowing
  submit is rejected immediately with a *retriable* ``queue-full``
  error instead of growing without bound;
* each accepted job streams events through a bounded per-job buffer
  (``event_buffer``); a slow-reading client blocks its *own* worker
  (true backpressure), never the server's memory;
* higher ``priority`` requests dequeue first (FIFO within a
  priority);
* :meth:`drain` (wired to SIGTERM by ``repro-pipeline serve``) stops
  intake — new work requests get a retriable ``draining`` error while
  queued and in-flight jobs run to completion, then
  :meth:`serve_forever` returns;
* a crashing solver is a failed *outcome* (structured
  :class:`~repro.engine.policy.ErrorKind` on the event), and a
  crashing request handler is a terminal ``error`` event — neither
  kills a worker.

Per-request ``policy`` timeouts degrade to unguarded execution here
(SIGALRM needs the main thread; workers are threads) — retries and
backoff still apply.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Callable, Mapping

from ..core import metrics_kernels
from ..engine.batch import BatchTask, iter_batch
from ..engine.policy import BatchPolicy
from ..engine.store import ResultStore, ThreadSafeStore, open_store
from ..engine.sweeps import SweepInstance, SweepPlan, iter_sweep
from ..exceptions import ReproError
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ServiceError,
    done_event,
    encode_event,
    error_event,
    outcome_event,
    policy_from_request,
    validate_request,
)

__all__ = ["SolverService"]

_SendFn = Callable[[Mapping[str, Any]], Awaitable[None]]

#: sentinel closing a job's event stream
_END = None


@dataclass
class _Job:
    """One queued work request plus its event channel."""

    rid: str
    request: dict[str, Any]
    events: asyncio.Queue
    enqueued_at: float = field(default_factory=time.perf_counter)


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class SolverService:
    """Long-lived solve daemon sharing one store across clients.

    Parameters
    ----------
    store:
        A :class:`ResultStore`, a path (opened via
        :func:`~repro.engine.store.open_store`), or None to serve
        without a cache.  Whatever arrives is wrapped in
        :class:`ThreadSafeStore` so all workers share it safely.
    workers:
        Worker threads executing jobs (= max concurrent requests).
    queue_size:
        Bound on queued-but-unstarted requests; overflow is rejected
        with a retriable ``queue-full`` error.
    event_buffer:
        Per-job bound on buffered response events; when a client reads
        slower than its job produces, the job's worker blocks (the
        server never buffers an unbounded backlog).
    default_policy:
        :class:`BatchPolicy` applied when a request carries none.

    Sweeps run with ``shared_cache=False``: the process-wide
    evaluation-term hand-off is not thread-safe, and the shared *store*
    is what the service scales on.
    """

    def __init__(
        self,
        store: "ResultStore | str | Path | None" = None,
        *,
        workers: int = 2,
        queue_size: int = 32,
        event_buffer: int = 64,
        default_policy: BatchPolicy | None = None,
    ) -> None:
        if workers < 1:
            raise ReproError("service needs at least 1 worker")
        if queue_size < 1:
            raise ReproError("queue_size must be >= 1")
        if event_buffer < 1:
            raise ReproError("event_buffer must be >= 1")
        if isinstance(store, (str, Path)):
            store = open_store(store, threadsafe=True)
        elif store is not None and not isinstance(store, ThreadSafeStore):
            store = ThreadSafeStore(store)
        self.store = store
        self.workers = workers
        self.queue_size = queue_size
        self.event_buffer = event_buffer
        self.default_policy = default_policy

        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue(
            maxsize=queue_size
        )
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        )
        self._seq = itertools.count()
        self._worker_tasks: list[asyncio.Task] = []
        self._drainer_tasks: set[asyncio.Task] = set()
        self._connections: set[asyncio.Task] = set()
        self._servers: list[asyncio.AbstractServer] = []
        self._draining = False
        self._drain_requested: asyncio.Event | None = None
        self._started_at: float | None = None
        self.socket_path: str | None = None
        self.http_port: int | None = None

        # counters shared between the event loop and worker threads
        self._lock = threading.Lock()
        self._accepted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._outcomes_ok = 0
        self._outcomes_failed = 0
        self._outcomes_cached = 0
        self._latencies: deque[float] = deque(maxlen=4096)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    async def start(
        self,
        *,
        socket_path: "str | Path | None" = None,
        host: str | None = None,
        port: int | None = None,
    ) -> None:
        """Bind the transports and start the worker pool.

        ``socket_path`` starts the NDJSON Unix-socket endpoint;
        ``host``/``port`` (port 0 picks a free one, reported via
        :attr:`http_port`) starts the HTTP endpoint.  At least one is
        required.
        """
        if socket_path is None and port is None:
            raise ReproError(
                "service needs a socket_path and/or an HTTP host/port"
            )
        self._drain_requested = asyncio.Event()
        self._started_at = time.monotonic()
        # compile the bulk kernels (no-op without numba) before the
        # first request lands, so daemon latency percentiles never eat
        # a mid-request JIT pass; cache=True persists the machine code,
        # making this near-instant on every later daemon start
        await asyncio.get_running_loop().run_in_executor(
            self._executor, metrics_kernels.warmup
        )
        if socket_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_ndjson,
                path=str(socket_path),
                limit=MAX_LINE_BYTES,
            )
            self.socket_path = str(socket_path)
            self._servers.append(server)
        if port is not None:
            server = await asyncio.start_server(
                self._handle_http,
                host=host or "127.0.0.1",
                port=port,
                limit=MAX_LINE_BYTES,
            )
            self.http_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        self._worker_tasks = [
            asyncio.create_task(self._worker_loop(), name=f"worker-{i}")
            for i in range(self.workers)
        ]

    def drain(self) -> None:
        """Stop accepting work; queued and in-flight jobs finish.

        Call from the event loop thread (signal handlers installed by
        the CLI, or ``loop.call_soon_threadsafe`` from outside).
        New work requests are rejected with a retriable ``draining``
        error; control requests keep working so clients can observe
        the drain.
        """
        if self._draining:
            return
        self._draining = True
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def serve_forever(self) -> None:
        """Serve until :meth:`drain`, then finish the backlog and stop."""
        if self._drain_requested is None:
            raise ReproError("call start() before serve_forever()")
        await self._drain_requested.wait()
        await self._queue.join()
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        if self._drainer_tasks:
            await asyncio.gather(
                *self._drainer_tasks, return_exceptions=True
            )
        for server in self._servers:
            server.close()
            await server.wait_closed()
        if self._connections:
            # let in-flight replies flush; only a hung client is cut
            _, pending = await asyncio.wait(
                self._connections, timeout=5.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # request intake (event loop side)
    # ------------------------------------------------------------------
    async def _dispatch(self, payload: Any, send: _SendFn) -> None:
        """Validate, answer/enqueue, then relay the job's events."""
        fallback_id = (
            payload.get("id") if isinstance(payload, Mapping) else None
        )
        try:
            req = validate_request(payload)
        except ServiceError as exc:
            with self._lock:
                self._rejected += 1
            await send(error_event(fallback_id, exc))
            return
        rid = req.get("id") or f"req-{next(self._seq)}"
        kind = req["kind"]
        if kind == "ping":
            await send(
                {
                    "event": "pong",
                    "id": rid,
                    "schema": PROTOCOL_VERSION,
                    "draining": self._draining,
                }
            )
            return
        if kind == "stats":
            await send({"event": "stats", "id": rid, **self.stats_snapshot()})
            return
        if kind == "drain":
            self.drain()
            await send({"event": "draining", "id": rid})
            return

        if self._draining:
            with self._lock:
                self._rejected += 1
            await send(
                error_event(
                    rid,
                    ServiceError(
                        "service is draining and no longer accepts work",
                        code="draining",
                        retriable=True,
                    ),
                )
            )
            return
        job = _Job(
            rid=rid,
            request=req,
            events=asyncio.Queue(maxsize=self.event_buffer),
        )
        try:
            self._queue.put_nowait((-req["priority"], next(self._seq), job))
        except asyncio.QueueFull:
            with self._lock:
                self._rejected += 1
            await send(
                error_event(
                    rid,
                    ServiceError(
                        f"request queue is full "
                        f"({self.queue_size} pending); retry later",
                        code="queue-full",
                        retriable=True,
                    ),
                )
            )
            return
        with self._lock:
            self._accepted += 1
        delivered = False
        try:
            await send(
                {
                    "event": "accepted",
                    "id": rid,
                    "kind": kind,
                    "pending": self._queue.qsize(),
                }
            )
            while True:
                event = await job.events.get()
                if event is _END:
                    delivered = True
                    return
                await send(event)
        finally:
            if not delivered:
                # client went away (or the relay died) with the job
                # still queued/running: keep consuming its events so
                # the worker's bounded-buffer puts never deadlock
                task = asyncio.create_task(self._discard_events(job))
                self._drainer_tasks.add(task)
                task.add_done_callback(self._drainer_tasks.discard)

    @staticmethod
    async def _discard_events(job: _Job) -> None:
        while await job.events.get() is not _END:
            pass

    # ------------------------------------------------------------------
    # job execution (worker side)
    # ------------------------------------------------------------------
    async def _worker_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            _, _, job = await self._queue.get()
            try:
                await loop.run_in_executor(
                    self._executor, self._execute_job, job, loop
                )
            finally:
                self._queue.task_done()

    def _execute_job(
        self, job: _Job, loop: asyncio.AbstractEventLoop
    ) -> None:
        """Run one job on a worker thread, streaming events back.

        Every ``emit`` blocks until the event-loop side buffered the
        event (bounded queue): a slow client throttles exactly one
        worker.
        """
        req = job.request
        started = time.perf_counter()
        queue_wait = started - job.enqueued_at

        def emit(event: "Mapping[str, Any] | None") -> None:
            asyncio.run_coroutine_threadsafe(
                job.events.put(event), loop
            ).result()

        ok = failed = cached = total = 0
        try:
            policy = policy_from_request(req) or self.default_policy
            include_mapping = bool(req.get("include_mapping", False))
            seed = req.get("seed")
            if req["kind"] == "solve":
                instance = SweepInstance.from_spec(req["instance"], 0)
                task = BatchTask(
                    req["solver"],
                    instance.application,
                    instance.platform,
                    threshold=req.get("threshold"),
                    opts=dict(req.get("opts") or {}),
                    tag=instance.tag,
                )
                stream = (
                    (outcome, instance.tag, None)
                    for outcome in iter_batch(
                        [task], seed=seed, policy=policy, store=self.store
                    )
                )
            else:
                plan = SweepPlan.from_spec(req["plan"])
                stream = (
                    (point.outcome, point.instance_tag, point.index)
                    for point in iter_sweep(
                        plan,
                        seed=seed,
                        policy=policy,
                        store=self.store,
                        shared_cache=False,
                        in_order=False,
                        stream="points",
                    )
                )
            for outcome, instance_tag, point_index in stream:
                total += 1
                ok += outcome.ok
                failed += not outcome.ok
                cached += outcome.cached
                emit(
                    outcome_event(
                        job.rid,
                        outcome,
                        instance=instance_tag,
                        point_index=point_index,
                        include_mapping=include_mapping,
                    )
                )
            elapsed = time.perf_counter() - started
            with self._lock:
                self._completed += 1
                self._outcomes_ok += ok
                self._outcomes_failed += failed
                self._outcomes_cached += cached
                self._latencies.append(queue_wait + elapsed)
            emit(
                done_event(
                    job.rid,
                    total=total,
                    ok=ok,
                    failed=failed,
                    cached=cached,
                    elapsed=elapsed,
                    queue_wait=queue_wait,
                )
            )
        except ReproError as exc:
            with self._lock:
                self._failed += 1
            if not isinstance(exc, ServiceError):
                exc = ServiceError(str(exc), code="bad-request")
            emit(error_event(job.rid, exc))
        except Exception as exc:  # defensive: a worker must survive
            with self._lock:
                self._failed += 1
            emit(
                error_event(
                    job.rid,
                    ServiceError(
                        f"{type(exc).__name__}: {exc}", code="internal"
                    ),
                )
            )
        finally:
            emit(_END)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict[str, Any]:
        """Point-in-time server/store counters (the ``stats`` reply)."""
        with self._lock:
            ordered = sorted(self._latencies)
            snapshot: dict[str, Any] = {
                "schema": PROTOCOL_VERSION,
                "server": {
                    "workers": self.workers,
                    "queue_capacity": self.queue_size,
                    "queue_depth": self._queue.qsize(),
                    "draining": self._draining,
                    "uptime": (
                        time.monotonic() - self._started_at
                        if self._started_at is not None
                        else 0.0
                    ),
                },
                "requests": {
                    "accepted": self._accepted,
                    "rejected": self._rejected,
                    "completed": self._completed,
                    "failed": self._failed,
                },
                "outcomes": {
                    "ok": self._outcomes_ok,
                    "failed": self._outcomes_failed,
                    "cached": self._outcomes_cached,
                    "solver_invocations": (
                        self._outcomes_ok
                        + self._outcomes_failed
                        - self._outcomes_cached
                    ),
                },
                "latency": {
                    "count": len(ordered),
                    "mean": (
                        sum(ordered) / len(ordered) if ordered else 0.0
                    ),
                    "p50": _percentile(ordered, 50),
                    "p90": _percentile(ordered, 90),
                    "p99": _percentile(ordered, 99),
                },
            }
        if self.store is not None:
            snapshot["store"] = {
                **self.store.stats.as_dict(),
                "records": len(self.store),
            }
        return snapshot

    # ------------------------------------------------------------------
    # transports
    # ------------------------------------------------------------------
    async def _guard_connection(self, coro: "Awaitable[None]") -> None:
        """Run one connection handler, absorbing teardown cancellation.

        A handler task that *finishes cancelled* makes
        :mod:`asyncio.streams` log a spurious traceback from its
        ``connection_made`` callback; swallowing the cancellation here
        (these tasks are only ever cancelled by our own shutdown) keeps
        teardown silent.
        """
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await coro
        except asyncio.CancelledError:
            pass
        finally:
            if task is not None:
                self._connections.discard(task)

    async def _handle_ndjson(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        await self._guard_connection(self._serve_ndjson(reader, writer))

    async def _handle_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        await self._guard_connection(self._serve_http(reader, writer))

    async def _serve_ndjson(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One NDJSON request per connection; events stream back."""
        try:
            line = await reader.readline()
            if not line.strip():
                return
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                writer.write(
                    encode_event(
                        error_event(
                            None,
                            ServiceError(
                                f"invalid JSON: {exc}", code="bad-request"
                            ),
                        )
                    )
                )
                await writer.drain()
                return

            async def send(event: Mapping[str, Any]) -> None:
                writer.write(encode_event(event))
                await writer.drain()

            await self._dispatch(payload, send)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Minimal HTTP/1.1: POST /v1/requests, GET /v1/{ping,stats}.

        Responses are ``application/x-ndjson`` with chunked
        transfer-encoding — the same event stream as the socket
        transport, one chunk per event.
        """
        try:
            request_line = (await reader.readline()).decode("latin-1")
            parts = request_line.split()
            if len(parts) != 3:
                return
            method, path, _ = parts
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()

            if method == "POST" and path in ("/v1/requests", "/v1"):
                try:
                    length = int(headers.get("content-length", "0"))
                except ValueError:
                    length = -1
                if length < 0:
                    await self._http_plain(
                        writer, 400, "missing/invalid Content-Length"
                    )
                    return
                body = await reader.readexactly(length)
                try:
                    payload: Any = json.loads(body) if body else None
                except json.JSONDecodeError as exc:
                    await self._http_plain(writer, 400, f"invalid JSON: {exc}")
                    return
            elif method == "GET" and path == "/v1/ping":
                payload = {"kind": "ping"}
            elif method == "GET" and path == "/v1/stats":
                payload = {"kind": "stats"}
            else:
                await self._http_plain(
                    writer, 404, f"no route for {method} {path}"
                )
                return

            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Transfer-Encoding: chunked\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()

            async def send(event: Mapping[str, Any]) -> None:
                line = encode_event(event)
                writer.write(
                    f"{len(line):X}\r\n".encode() + line + b"\r\n"
                )
                await writer.drain()

            await self._dispatch(payload, send)
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _http_plain(
        writer: asyncio.StreamWriter, status: int, message: str
    ) -> None:
        reason = {400: "Bad Request", 404: "Not Found"}.get(status, "Error")
        body = encode_event(
            error_event(
                None, ServiceError(message, code="bad-request")
            )
        )
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/x-ndjson\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body
        )
        await writer.drain()
