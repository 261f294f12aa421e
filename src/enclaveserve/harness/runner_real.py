"""Real-clock scenario execution over loopback sockets.

The cluster and schedule of `runner.py` on the wall clock, for smoke runs
and sanity checks rather than acceptance numbers. The clock is a
`RealClock`, the same event loop sleeping until each event is due, so
interference, control ticks and sends run on the thread that calls
`run()`. Its own part is the request path: each send starts one thread for
its request, and replicas listen on loopback TCP ports and serve each
connection on its own thread. A request is one connection carrying a
handshake (resumed once the runner's ticket cache holds a ticket) and
encrypted records, all within one deadline of `timeout_s` from its send;
a request that misses it or fails in any other way completes at that
deadline, and the shared completion rule records it as timed out. A
request's service time is the shared `service_time`, drawn when its
service starts as on the virtual clock, and is spent sleeping. The
listeners follow the shared reconciler: each replica it starts opens one,
and each replica it stops, scaled down or crashed and about to restart,
closes its listener first, so autoscaling works as on the virtual clock.
Before `run()` returns, every listener closes and waits, for a bounded
time, for its threads to end. Every scenario field is honoured,
`capture_traffic` by recording the keystore RPCs and every frame a client
sends or receives. Timing is subject to scheduler jitter and runs are not
reproducible.
"""

from __future__ import annotations

# The benchmark's tracer (perfbench/tracing.py) looks up and replaces these
# names in this module by name: seal_record, open_record, start_replica,
# collect, request_payload, RequestRecord, client_handshake,
# server_handshake, SocketTransport, socket and generate_arrivals. So all
# stay bound here, start_replica, collect and RequestRecord too, although
# the shared core in runner.py makes those calls. The tracer joins a
# request's phases by thread, so each request and each connection keeps its
# own thread.
import socket
import threading
import time

from ..aecs.store import UntrustedStore
from ..channel.errors import SecureChannelError
from ..channel.handshake import client_handshake, server_handshake
from ..channel.record import Session, open_record, seal_record
from ..channel.transport import SocketTransport, WiretapTransport
from ..clock import RealClock
from ..control.telemetry import collect  # noqa: F401
from ..serving.replica import (  # noqa: F401
    ModelServerReplica,
    decode_inference_response,
    encode_inference_response,
    start_replica,
)
from .metrics import RequestRecord, RunReport  # noqa: F401
from .runner import ClusterRunner
from .scenario import ScenarioConfig
from .workload import generate_arrivals, request_payload

# how long stop() waits for a listener's threads to end
_STOP_JOIN_S = 5.0


class _ReplicaListener:
    """Loopback TCP server for one replica, one thread per connection; each
    connection is a handshake, one request record in and one response record
    out. `parallelism` bounds the number of requests being serviced at once,
    later arrivals queue on the semaphore. The runner's clock, session
    randomness and service-time rule serve every connection."""

    def __init__(self, replica: ModelServerReplica, runner: ClusterRunner) -> None:
        self.replica = replica
        self.runner = runner
        self.semaphore = threading.Semaphore(replica.parallelism)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(128)
        self.port = self.sock.getsockname()[1]
        self._stop = threading.Event()
        self._connections: list[threading.Thread] = []
        self.thread = threading.Thread(target=self._accept_loop, daemon=True)
        self.thread.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            worker = threading.Thread(target=self._serve_one, args=(conn,), daemon=True)
            worker.start()
            # only this thread writes the list; keep the ones stop() may wait for
            self._connections = [t for t in self._connections if t.is_alive()]
            self._connections.append(worker)

    def _serve_one(self, conn: socket.socket) -> None:
        runner, clock = self.runner, self.runner.clock
        try:
            with conn:
                transport = SocketTransport(conn)
                session = server_handshake(
                    transport, self.replica.pki, runner.session_rng(), now=clock.now()
                )
                payload = open_record(session, transport.recv_frame(10.0))
                with self.semaphore:
                    if self._stop.is_set():
                        return  # the run is over: nobody waits for this response
                    token = self.replica.begin_request(clock.now())
                    service_time = runner.service_time(self.replica)
                    clock.sleep(service_time)
                    self.replica.end_request(token, clock.now())
                transport.send_frame(
                    seal_record(session, encode_inference_response(payload, service_time))
                )
        except (SecureChannelError, OSError):
            pass

    def stop(self) -> None:
        """Close the listening socket and wait, up to _STOP_JOIN_S, for the
        accept thread and every connection thread. Safe to call again."""
        self._stop.set()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept()
        except OSError:
            pass  # already closed
        self.sock.close()
        deadline = time.monotonic() + _STOP_JOIN_S
        self.thread.join(_STOP_JOIN_S)
        # the accept loop has returned, so no connection thread is added now
        for thread in self._connections:
            thread.join(max(0.0, deadline - time.monotonic()))


class RealRunner(ClusterRunner):
    """The shared core on the wall clock, with requests served over
    loopback sockets."""

    def __init__(self, config: ScenarioConfig, store: UntrustedStore | None = None) -> None:
        super().__init__(config, RealClock(), store)
        self.listeners: dict[str, _ReplicaListener] = {}
        self._workers: list[threading.Thread] = []
        self._count_lock = threading.Lock()

    def _make_replica(self, replica_id: str, node_id: str) -> ModelServerReplica:
        replica = super()._make_replica(replica_id, node_id)
        self.listeners[replica_id] = _ReplicaListener(replica, self)
        return replica

    def _retire_replica(self, replica: ModelServerReplica) -> None:
        self.listeners.pop(replica.replica_id).stop()
        super()._retire_replica(replica)

    def _arrivals(self) -> list[float]:
        return generate_arrivals(self.config)

    def run(self) -> RunReport:
        try:
            return super().run()
        finally:
            for listener in self.listeners.values():
                listener.stop()

    # -- request path ------------------------------------------------------------------

    def _send(self, index: int) -> None:
        worker = threading.Thread(target=self._request, args=(index, self.clock.now()), daemon=True)
        worker.start()
        self._workers = [t for t in self._workers if t.is_alive()]  # what _drain waits for
        self._workers.append(worker)

    def _drain(self) -> None:
        deadline = time.monotonic() + self.config.workload.timeout_s + 1.0
        for worker in self._workers:
            worker.join(max(0.0, deadline - time.monotonic()))

    def _count_handshake(self, client_session: Session) -> None:
        with self._count_lock:
            if client_session.resumed:
                self.handshakes_resumed += 1
            else:
                self.handshakes_full += 1

    def _request(self, index: int, send_ts: float) -> None:
        endpoint = self._pick(index, send_ts)
        if endpoint is None:
            return
        deadline = send_ts + self.config.workload.timeout_s

        def left() -> float:
            # one deadline covers connect, handshake and response
            remaining = deadline - self.clock.now()
            if remaining <= 0:
                raise TimeoutError("request deadline passed")
            return remaining

        try:
            # looked up inside the try: a crash restart may have retired it
            port = self.listeners[endpoint.endpoint_id].port
            with socket.create_connection(("127.0.0.1", port), timeout=left()) as sock:
                transport = SocketTransport(sock)
                if self._capture is not None:
                    transport = WiretapTransport(transport, self._capture)
                session = client_handshake(
                    transport,
                    self.expected_cert,
                    self.session_rng(),
                    now=self.clock.now(),
                    tickets=self.tickets,
                    timeout=left(),
                )
                self._count_handshake(session)
                transport.send_frame(seal_record(session, request_payload(self.config, index)))
                response = open_record(session, transport.recv_frame(left()))
                decode_inference_response(response)
            now = self.clock.now()
        except Exception as exc:
            # whatever went wrong, the client gives up at its deadline
            if not isinstance(exc, (SecureChannelError, OSError)):
                import logging  # here: the import costs 0.25 MiB that a healthy run never needs

                logging.getLogger(__name__).exception("request %d failed", index)
            now = deadline
        self._complete(endpoint, index, send_ts, now)


def run_scenario_real(config: ScenarioConfig, store: UntrustedStore | None = None) -> RunReport:
    """Execute one scenario on the wall clock over loopback sockets."""
    return RealRunner(config, store=store).run()
