"""Span tracing installed from outside the program.

`Tracer.install()` replaces, for one traced run, the names the runners
imported (for example `harness.runner.handshake_in_process`) and a few
public methods of the classes they call (for example
`VirtualService.pick_endpoint`) with wrappers that record spans.
`Tracer.restore()` puts every original back. Nothing under `src/` knows
about tracing.

A span is (id, name, start, end, parent id, context). Times come from
`time.monotonic()`, the clock the real runner's `RealClock` reads. The
parent is the innermost open span of the same thread. The context carries
the request id: a virtual run gets a fresh context per event-loop event,
a real run one per thread, because the real runner starts one thread per
request and one per connection. Server and client contexts of one request
are joined after the run by the client's ephemeral port and by time.
"""

from __future__ import annotations

import collections
import itertools
import socket as socket_module
import threading
import time
from pathlib import Path

from enclaveserve.aecs.errors import VersionConflict
from enclaveserve.aecs.service import KEYMAP_OBJECT, AecsReplica
from enclaveserve.aecs.store import MemoryStore
from enclaveserve.aecs.wire import AecsClient
from enclaveserve.clock import EventLoop
from enclaveserve.control.slo import SloController
from enclaveserve.harness import runner as virtual_runner_module
from enclaveserve.harness import runner_real as real_runner_module
from enclaveserve.serving.frontend import VirtualService
from enclaveserve.serving.replica import ModelServerReplica
from enclaveserve.substrate.node import Node

now = time.monotonic


class Context:
    __slots__ = ("rid", "role", "port", "peer")

    def __init__(self) -> None:
        self.rid: int | None = None
        self.role = ""
        self.port = 0
        self.peer: Context | None = None  # a server's client, once linked


class _SocketModule:
    """Stands in for the `socket` module inside the real runner, with a
    traced `create_connection`."""

    def __init__(self, create_connection) -> None:
        self.create_connection = create_connection

    def __getattr__(self, name):
        return getattr(socket_module, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self._count_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        with self._count_lock:
            self.counts[key] += n

    def context(self) -> Context:
        ctx = getattr(self._local, "ctx", None)
        if ctx is None:
            ctx = self._local.ctx = Context()
        return ctx

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn, before=None, after=None):
        """Wrap `fn` so each call records a span; `before(args)` and
        `after(result)` see the call's arguments and result."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            if before is not None:
                before(args)
            start = now()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count(name + ".errors")
                raise
            finally:
                end = now()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.context()))
            if after is not None:
                after(result)
            return result

        return wrapper

    def traced_loop_class(self):
        """An EventLoop whose events each run inside a `harness.event` span
        with a fresh request context."""
        tracer = self

        class TracedEventLoop(EventLoop):
            def call_at(self, when, fn):
                timed_fn = tracer.timed("harness.event", fn)

                def event():
                    tracer._local.ctx = Context()
                    try:
                        timed_fn()
                    finally:
                        tracer._local.ctx = None

                super().call_at(when, event)

        return TracedEventLoop

    # -- hooks ------------------------------------------------------------------

    def _set_rid(self, args) -> None:
        self.context().rid = args[1]

    def _record_rid(self, args) -> None:
        self.context().rid = args[0]

    def _record_bytes(self, args) -> None:
        self.count("record_bytes", len(args[1]))

    def _client_connected(self, sock) -> None:
        ctx = self.context()
        ctx.role = "client"
        ctx.port = sock.getsockname()[1]

    def _transport_made(self, args) -> None:
        ctx = self.context()
        if ctx.role != "client":
            ctx.role = "server"
            ctx.port = args[0].getpeername()[1]

    def _hook(self, fn, before):
        def wrapper(*args, **kwargs):
            before(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- install / restore --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.restore()
            raise

    def _install(self) -> None:
        t = self.timed
        v, r = virtual_runner_module, real_runner_module
        for module in (v, r):
            d = module.__dict__
            seal = t("channel.seal", d["seal_record"], self._record_bytes)
            self._patch(module, "seal_record", seal)
            self._patch(module, "open_record", t("channel.open", d["open_record"]))
            self._patch(module, "start_replica", t("serving.start_replica", d["start_replica"]))
            self._patch(module, "collect", t("control.collect", d["collect"]))
            self._patch(module, "request_payload", self._hook(d["request_payload"], self._set_rid))
            self._patch(module, "RequestRecord", self._hook(d["RequestRecord"], self._record_rid))
        self._patch(v, "handshake_in_process", t("channel.handshake", v.handshake_in_process))
        self._patch(v, "EventLoop", self.traced_loop_class())
        self._patch(r, "client_handshake", t("channel.client_handshake", r.client_handshake))
        self._patch(r, "server_handshake", t("channel.server_handshake", r.server_handshake))
        self._patch(r, "SocketTransport", self._hook(r.SocketTransport, self._transport_made))
        connect = t(
            "channel.connect", socket_module.create_connection, after=self._client_connected
        )
        self._patch(r, "socket", _SocketModule(connect))
        for owner, attr, name in (
            (VirtualService, "pick_endpoint", "serving.pick"),
            (ModelServerReplica, "begin_request", "serving.begin_request"),
            (ModelServerReplica, "end_request", "serving.end_request"),
            (AecsReplica, "bootstrap", "aecs.bootstrap"),
            (AecsClient, "create_service_pki", "aecs.create"),
            (AecsClient, "get_certificate", "aecs.get_cert"),
            (AecsClient, "provision_pki", "aecs.provision"),
            (Node, "service_latency", "substrate.service_latency"),
            (Node, "paging_state", "substrate.paging_state"),
            (Node, "create_report", "substrate.report"),
            (Node, "seal", "substrate.seal"),
            (SloController, "step", "control.slo_step"),
        ):
            self._patch(owner, attr, t(name, owner.__dict__[attr]))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched_names(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    # -- output --------------------------------------------------------------------

    def write(self, path: Path, origin: float) -> None:
        """Write every span as CSV, times in microseconds from `origin`."""
        link_connections(self.spans)
        with open(path, "w") as out:
            out.write("id,name,start_us,end_us,parent,request\n")
            for sid, name, start, end, parent, ctx in self.spans:
                out.write(
                    f"{sid},{name},{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f},"
                    f"{parent},{'' if ctx.rid is None else ctx.rid}\n"
                )


class CountingStore:
    """The untrusted store handed to a traced run, counting the keystore's
    reads, compare-and-swap writes and conflicts into `tracer.counts`."""

    def __init__(self, tracer: Tracer) -> None:
        self._inner = MemoryStore()
        self._tracer = tracer

    def get(self, name: str) -> tuple[bytes, int]:
        self._tracer.count("store.gets")
        return self._inner.get(name)

    def put(self, name: str, data: bytes, expected_version: int) -> int:
        self._tracer.count("store.puts")
        try:
            version = self._inner.put(name, data, expected_version)
        except VersionConflict:
            self._tracer.count("store.conflicts")
            raise
        self._note_size(name, data)
        return version

    def create_if_absent(self, name: str, data: bytes) -> int:
        version = self._inner.create_if_absent(name, data)
        self._note_size(name, data)
        return version

    def _note_size(self, name: str, data: bytes) -> None:
        if name == KEYMAP_OBJECT:
            self._tracer.counts["store.keymap_bytes"] = len(data)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the durations of its child spans."""
    children: collections.Counter = collections.Counter()
    for _, _, start, end, parent, _ in spans:
        if parent:
            children[parent] += end - start
    return {sid: (end - start) - children[sid] for sid, _, start, end, _, _ in spans}


CLIENT_SPANS = ("channel.connect", "channel.client_handshake", "channel.open")
SERVER_SPANS = (
    "channel.server_handshake",
    "channel.open",
    "serving.begin_request",
    "serving.end_request",
)


def _connection_contexts(spans: list[tuple]) -> dict[int, tuple[Context, dict[str, tuple]]]:
    """id(context) -> (context, its first span of each name), for the real
    runner's client and server threads."""
    found: dict[int, tuple[Context, dict[str, tuple]]] = {}
    for span in spans:
        ctx = span[5]
        if ctx.role:
            found.setdefault(id(ctx), (ctx, {}))[1].setdefault(span[1], span)
    return found


def link_connections(spans: list[tuple]) -> None:
    """Give each server context its client context and request id. The
    client's ephemeral port names the connection, but the kernel reuses
    ports within a run, so the server's first span must also start while
    the client's connection is open."""
    contexts = _connection_contexts(spans)
    opened: dict[int, float] = {}
    closed: dict[int, float] = {}
    for _, _, start, end, _, ctx in spans:
        if ctx.role:
            key = id(ctx)
            opened[key] = min(opened.get(key, start), start)
            closed[key] = max(closed.get(key, end), end)
    clients: dict[int, list[int]] = collections.defaultdict(list)
    for key, (ctx, _) in contexts.items():
        if ctx.role == "client":
            clients[ctx.port].append(key)
    for key, (ctx, _) in contexts.items():
        if ctx.role != "server":
            continue
        for client in clients[ctx.port]:
            if opened[client] <= opened[key] <= closed[client]:
                ctx.peer = contexts[client][0]
                ctx.rid = ctx.peer.rid
                break


def request_phases(spans: list[tuple], real_run) -> list[dict[str, float]]:
    """Per succeeded real-clock request, the seconds spent in each phase from
    its due time to the client holding the response."""
    link_connections(spans)
    contexts = _connection_contexts(spans)
    records = {rec.index: rec for rec in real_run.report.records}
    offset = real_run.clock_offset
    named = ("gen_late", "start", "connect", "client_handshake", "request_wait",
             "queue", "service", "response")
    phases = []
    for ctx, server in contexts.values():
        if ctx.role != "server" or ctx.peer is None:
            continue
        client = contexts[id(ctx.peer)][1]
        rec = records.get(ctx.rid)
        if rec is None or rec.status != "ok":
            continue
        if not all(n in client for n in CLIENT_SPANS) or not all(n in server for n in SERVER_SPANS):
            continue
        due = real_run.arrivals[ctx.rid] + offset
        send = rec.send_ts + offset
        connect, client_hs, response_open = (client[n] for n in CLIENT_SPANS)
        server_hs, request_open, begin, end = (server[n] for n in SERVER_SPANS)
        phase = {
            "gen_late": send - due,
            "start": connect[2] - send,
            "connect": connect[3] - connect[2],
            "client_handshake": client_hs[3] - client_hs[2],
            "server_handshake": server_hs[3] - server_hs[2],
            "request_wait": request_open[2] - server_hs[3],
            "queue": begin[2] - request_open[3],
            "service": end[2] - begin[2],
            "response": response_open[3] - end[2],
            "total": response_open[3] - due,
        }
        phase["other"] = phase["total"] - sum(phase[n] for n in named)
        phases.append(phase)
    return phases
