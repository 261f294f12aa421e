"""Scenario execution.

`ClusterRunner` is what both clocks share: the cluster build (nodes,
keystore replicas, service PKI, frontend, model replicas, SLO controller,
autoscaler and reconciler) and the run's one schedule. Interference window
edges, a control tick every sample interval (node telemetry to the
controller and autoscaler, then the reconciler, which also restarts
crashed replicas) and the request sends are events on the runner's clock,
queued in that order, and `run()` runs that clock until every event has
fired. A runner for one clock adds only its request path.

The virtual runner's clock is an `EventLoop` that jumps from event to
event: replica service completions are events on it too. A request has no
timeout event: its completion, which every accepted request reaches,
decides whether it came after its deadline. The schedule is
single-threaded and every random draw comes from streams derived from the
scenario seed, so a (scenario, seed) pair replays to the byte.

Each request is one L4 connection: the frontend picks a backend, the
client handshakes against the service certificate (a full handshake on
first contact, then resumed with the ticket it got, at any replica), and
encrypted records carry the payload both ways. The frontend only moves ciphertext; session
keys live at the client and inside the replica.

On the virtual clock nothing in the schedule reads a crypto result, so a
completed request only leaves a crypto job, and the run's jobs all run
once the last event has fired. The first makes the run's one full
handshake in the runner's process; of the rest, the runner runs the first
half and, so both cores work, one worker process forked then runs the
second. Each job carries its own session seed, drawn when the request was
sent, and the runner adds up the handshake counts and orders captured
frames by request index, so no output depends on the split. The worker
sends back the `confine` taint events its jobs recorded, and they are
recorded in the runner's process as if the jobs had run there.
"""

from __future__ import annotations

import gc
import os
import pickle
import random
import signal
import socket
import tempfile
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from .. import confine, crypto
from ..aecs.service import AECS_MEASUREMENT, AecsDeployment, AecsReplica
from ..aecs.store import MemoryStore, UntrustedStore
from ..channel.handshake import TicketCache, handshake_in_process
from ..channel.record import RECORD_OVERHEAD, open_record, seal_record
from ..clock import EventLoop
from ..control.autoscale import Autoscaler
from ..control.errors import NodeUnreachable
from ..control.reconcile import Reconciler
from ..control.slo import NodeObservation, SloController, SloSettings, observation_from_samples
from ..control.telemetry import collect, epc_csv_row, service_csv_row
from ..profiles import ModelProfile
from ..serving.errors import NoEligibleEndpoint
from ..serving.frontend import Endpoint, VirtualService
from ..serving.replica import (
    RESPONSE_HEADER,
    ModelServerReplica,
    replica_cpu_utilization,
    start_replica,
    stop_replica,
)
from ..substrate.node import EnclaveSpec, EpcSample, MIB, Node, NodeSpec, Substrate
from .errors import ScenarioFailed
from .metrics import (
    Recorder,
    RequestRecord,
    RunReport,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
)
from .scenario import ScenarioConfig
from .workload import generate_arrivals, request_payload

INTERFERENCE_MEASUREMENT = crypto.sha256(b"enclave:interference-batch")

AECS_ENCLAVE_REQUESTED = 16 * MIB
AECS_ENCLAVE_WORKING_SET = 8 * MIB


def _terminate(node: Node, enclave_id: str) -> None:
    handle = node.enclave_handle(enclave_id)
    if handle is not None:
        node.terminate_enclave(handle)


class ClusterRunner:
    """One scenario's cluster and its schedule, on any clock.

    A subclass supplies the clock and the request path: `_send(index)`
    runs at each request's due time and ends in `_complete`, the one rule
    that records a request ok or timed out, and `_drain()` waits for the
    requests still in flight once every event has run. It extends
    `_make_replica` to serve each replica it starts, and `_retire_replica`
    to stop serving each one the reconciler stops.
    """

    def __init__(
        self, config: ScenarioConfig, clock: EventLoop, store: UntrustedStore | None
    ) -> None:
        self.config = config
        self.profile: ModelProfile = config.profile
        self.clock = clock
        self.store = store if store is not None else MemoryStore()
        self.recorder = Recorder()
        self.epc_rows: list[str] = []
        self.service_rows: list[str] = []
        self.traffic_capture: list[bytes] = []
        self._capture = self.traffic_capture if config.capture_traffic else None
        self.crypto_rng = crypto.derived_rng(config.seed, "session-crypto")
        self.jitter_rng = crypto.derived_rng(config.seed, "service-jitter")
        self._rng_lock = threading.Lock()
        self.interval = config.slo.sample_interval_s if config.slo else SloSettings.sample_interval_s
        # each node's last successful telemetry sample
        self._last_sample: dict[str, EpcSample] = {}
        self.telemetry_gaps = 0
        self._ticked = False
        # the client's resumption tickets, and how each request's handshake went
        self.tickets = TicketCache()
        self.handshakes_full = 0
        self.handshakes_resumed = 0
        frontend_algorithm = "sed" if config.algorithm == "sgx_aware" else config.algorithm
        self.vs = VirtualService(config.service_id, frontend_algorithm)
        self.controller: SloController | None = None
        self.autoscaler: Autoscaler | None = None
        self.aecs_replicas: list[AecsReplica] = []

    # -- topology -----------------------------------------------------------------

    def _build_cluster(self, sealed_root: Path) -> None:
        config = self.config
        node_rng = crypto.derived_rng(config.seed, "node-keys")
        self.substrate = Substrate(self.clock)
        for node_config in config.nodes:
            self.substrate.add_node(
                NodeSpec(
                    node_id=node_config.node_id,
                    root_seal_key=node_rng.randbytes(32),
                    platform_attestation_key=node_rng.randbytes(32),
                    epc_usable_bytes=node_config.epc_mib * MIB,
                ),
                t_ref=config.t_ref_pages_per_s,
            )

        deployment = AecsDeployment(
            measurement=AECS_MEASUREMENT, registry=self.substrate.registry, store=self.store
        )
        for placement in config.aecs_placements:
            node = self.substrate.node(placement.node_id)
            enclave = node.launch_enclave(
                EnclaveSpec(
                    enclave_id=f"aecs/{placement.replica_id}",
                    measurement=AECS_MEASUREMENT,
                    requested_epc_bytes=AECS_ENCLAVE_REQUESTED,
                    working_set_bytes=AECS_ENCLAVE_WORKING_SET,
                    page_access_rate=0.0,
                    system_enclave=True,
                )
            )
            replica = AecsReplica(
                replica_id=placement.replica_id,
                enclave=enclave,
                deployment=deployment,
                sealed_path=sealed_root / f"{placement.replica_id}.sealed",
                rng=crypto.derived_rng(config.seed, f"aecs:{placement.replica_id}"),
                clock=self.clock,
            )
            replica.bootstrap()
            self.aecs_replicas.append(replica)

        self.aecs_client = self.aecs_replicas[0].client(capture=self._capture)
        self.aecs_client.create_service_pki(config.service_id, self.profile.measurement())
        self.expected_cert = self.aecs_client.get_certificate(config.service_id)

        # the placement list is the pool and the reconciler owns membership:
        # all of the pool, or the autoscaler's minimum to start from
        self.reconciler = Reconciler(
            self.vs,
            placements=[(p.replica_id, p.node_id) for p in config.replica_placements],
            starter=self._make_replica,
            stopper=self._retire_replica,
        )
        autoscale = config.autoscale
        initial = autoscale.min_replicas if autoscale.enabled else len(config.replica_placements)
        self.reconciler.step(self.clock.now(), initial)

        if config.algorithm == "sgx_aware":
            assert config.slo is not None
            self.controller = SloController(config.slo, self.vs)
        if autoscale.enabled:
            self.autoscaler = Autoscaler(autoscale)

    def _make_replica(self, replica_id: str, node_id: str) -> ModelServerReplica:
        return start_replica(
            service_id=self.config.service_id,
            replica_id=replica_id,
            aecs_client=self.aecs_client,
            node=self.substrate.node(node_id),
            enclave_spec=self.profile.enclave_spec(f"{self.config.service_id}/{replica_id}"),
            rng=crypto.derived_rng(self.config.seed, f"replica:{replica_id}"),
            parallelism=self.config.parallelism,
        )

    def _retire_replica(self, replica: ModelServerReplica) -> None:
        stop_replica(replica)

    # -- telemetry / control tick ------------------------------------------------------

    def _tick(self) -> None:
        now = self.clock.now()
        observations: dict[str, NodeObservation] = {}
        for node in self.substrate.nodes():
            try:
                sample = collect(node)
            except NodeUnreachable:
                # a gap this cycle: the controller must not act on stale data
                self.telemetry_gaps += 1
                observations[node.node_id] = NodeObservation(throughput=None)
                continue
            self.epc_rows.append(epc_csv_row(sample))
            # after a gap, the throughput spans back to the last good sample
            previous = self._last_sample.get(node.node_id)
            observations[node.node_id] = observation_from_samples(previous, sample)
            self._last_sample[node.node_id] = sample

        # the first tick has no earlier sample, so there is nothing to decide
        if self.controller is not None and self._ticked:
            self.controller.step(observations, now)
        self._ticked = True

        in_service_utils: list[float] = []
        for endpoint in self.vs.endpoints():
            util = replica_cpu_utilization(endpoint.replica, window=self.interval, now=now)
            self.service_rows.append(
                service_csv_row(
                    now,
                    self.config.service_id,
                    endpoint.endpoint_id,
                    endpoint.weight,
                    endpoint.active_connections,
                    util,
                )
            )
            if endpoint.weight == 1:
                in_service_utils.append(util)

        desired = self.reconciler.desired
        if self.autoscaler is not None:
            desired = self.autoscaler.step(now, desired, in_service_utils)
        self.reconciler.step(now, desired)

    # -- schedule --------------------------------------------------------------------

    def _schedule(self) -> None:
        # the start and the end of every interference window, in script order
        for script_index, script in enumerate(self.config.interference):
            node = self.substrate.node(script.node_id)
            for window_index, (start, end) in enumerate(script.windows):
                spec = EnclaveSpec(
                    enclave_id=f"stress-{script.node_id}-{script_index}-{window_index}",
                    measurement=INTERFERENCE_MEASUREMENT,
                    requested_epc_bytes=script.epc_mib * MIB,
                    # the batch task keeps refreshing its whole allocation
                    working_set_bytes=script.epc_mib * MIB,
                    page_access_rate=script.rate_pages_per_s,
                )
                self.clock.call_at(start, partial(node.launch_enclave, spec))
                self.clock.call_at(end, partial(_terminate, node, spec.enclave_id))
        for k in range(int(self.config.duration_s / self.interval) + 1):
            self.clock.call_at(k * self.interval, self._tick)
        self.arrivals = self._arrivals()
        for index, when in enumerate(self.arrivals):
            self.clock.call_at(when, partial(self._send, index))

    def _arrivals(self) -> list[float]:
        # through the runner's own module: the benchmark stamps each
        # runner's `generate_arrivals` there
        return generate_arrivals(self.config)

    def _drain(self) -> None:
        """Wait for requests still in flight once every event has run."""

    # -- requests --------------------------------------------------------------------

    def _pick(self, index: int, now: float) -> Endpoint | None:
        """Count request `index` as sent and dispatch it to a backend; with
        no backend eligible, record it rejected and return None."""
        self.recorder.count_send()
        try:
            endpoint = self.vs.pick_endpoint()
        except NoEligibleEndpoint:
            self.recorder.record(
                RequestRecord(index, now, now, "", self.config.workload.timeout_s, STATUS_REJECTED)
            )
            return None
        self.vs.dispatch(endpoint)
        return endpoint

    def _complete(self, endpoint: Endpoint, index: int, send_ts: float, now: float) -> None:
        """Release `endpoint` and record request `index` as completed at
        `now`: ok, or timed out at its deadline if `now` is at or after it
        (the client gave up then and dropped any late response)."""
        self.vs.complete(endpoint)
        timeout_s = self.config.workload.timeout_s
        deadline = send_ts + timeout_s
        if now >= deadline:
            record = RequestRecord(
                index, send_ts, deadline, endpoint.endpoint_id, timeout_s, STATUS_TIMEOUT
            )
        else:
            record = RequestRecord(
                index, send_ts, now, endpoint.endpoint_id, now - send_ts, STATUS_OK
            )
        self.recorder.record(record)

    def session_seed(self) -> int:
        """A fresh seed from the run's crypto stream. Every session's
        randomness, on either clock, is `random.Random(session_seed())`."""
        with self._rng_lock:
            return self.crypto_rng.getrandbits(64)

    def session_rng(self) -> random.Random:
        return random.Random(self.session_seed())

    def service_time(self, replica: ModelServerReplica) -> float:
        """The service time of a request `replica` starts serving now, from
        the run's one jitter stream: both clocks' servers call this."""
        with self._rng_lock:
            return self.profile.service_time(replica.node, self.jitter_rng)

    # -- entry point -------------------------------------------------------------------

    def run(self) -> RunReport:
        with tempfile.TemporaryDirectory(prefix="enclaveserve-sealed-") as sealed_root:
            try:
                self._build_cluster(Path(sealed_root))
                self._schedule()
            except Exception as exc:
                raise ScenarioFailed(f"scenario setup failed: {exc}") from exc
            self.clock.run()
            self._drain()
        return RunReport(
            scenario=self.config.name,
            seed=self.config.seed,
            model=self.config.model,
            algorithm=self.config.algorithm,
            duration_s=self.config.duration_s,
            slo_s=self.profile.slo_s,
            records=self.recorder.records(),
            sent=self.recorder.sent,
            weight_events=list(self.vs.weight_log),
            epc_rows=list(self.epc_rows),
            service_rows=list(self.service_rows),
        )


# the fewest crypto jobs in a run that fork a worker for half of them
FORK_MIN_JOBS = 64
# jobs' full and resumed handshake counts, and their frames by request index
_Result = tuple[int, int, list[tuple[int, list[bytes]]]]


@dataclass(slots=True)
class _Request:
    """One virtual request, held by its server's queue or completion event
    until it completes; nothing refers to it after that."""

    index: int
    send_ts: float
    endpoint: Endpoint
    seed: int  # of its session's randomness, drawn at send
    token: int = 0
    service_time: float = 0.0


class _Worker:
    """A process, forked once, that runs `work()` and answers once with
    `(ok, result, taint events)`. It inherits everything `work` needs."""

    def __init__(self, work: Callable[[], _Result]) -> None:
        self._socket, theirs = socket.socketpair()
        try:
            self.pid = os.fork()
        except (AttributeError, OSError):  # no os.fork, or it failed
            self._socket.close()
            theirs.close()
            raise
        if self.pid == 0:
            try:
                self._socket.close()
                gc.disable()  # a collection would write to, and so copy, every shared page
                confine.reset_taint()  # the runner's own events stay with the runner
                try:
                    answer = True, work(), confine.taint_events()
                except Exception:
                    answer = False, None, []
                with theirs.makefile("wb") as results:
                    pickle.dump(answer, results)
            finally:
                os._exit(0)
        theirs.close()

    def answer(self) -> tuple:
        """Wait for the answer, then reap the worker; not ok if it died."""
        try:
            with self._socket.makefile("rb") as results:
                return pickle.load(results)
        except (EOFError, OSError, pickle.UnpicklingError):
            return False, None, []
        finally:
            self.end()

    def end(self) -> None:
        """Stop and reap the worker, whatever it is doing."""
        self._socket.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


class _ReplicaServer:
    """Virtual-mode execution of one replica: a `parallelism`-wide server
    with a FIFO queue, producing completion events on the loop."""

    def __init__(self, runner: "VirtualRunner", replica: ModelServerReplica) -> None:
        self.runner = runner
        self.replica = replica
        self.busy = 0
        self.queue: deque[_Request] = deque()

    def submit(self, req: _Request) -> None:
        if self.busy < self.replica.parallelism:
            self._start(req)
        else:
            self.queue.append(req)

    def _start(self, req: _Request) -> None:
        loop = self.runner.loop
        now = loop.now()
        self.busy += 1
        req.token = self.replica.begin_request(now)
        req.service_time = self.runner.service_time(self.replica)
        loop.call_later(req.service_time, partial(self._finish, req))

    def _finish(self, req: _Request) -> None:
        now = self.runner.loop.now()
        self.busy -= 1
        self.replica.end_request(req.token, now)
        self.runner.complete_request(req)
        if self.queue:
            self._start(self.queue.popleft())


class VirtualRunner(ClusterRunner):
    """The shared core driven by one event loop, with requests served in
    process.

    A request is recorded when its server completes it, as timed out if
    that is at or after its deadline, and then becomes a crypto job
    `(index, send_ts, seed, service_time)`. Once the last event has fired,
    `_drain` runs the first job here, which makes the run's one full
    handshake; with `FORK_MIN_JOBS` jobs or more it then forks a `_Worker`,
    which inherits that handshake's ticket and runs the second half of the
    rest while the first half runs here. Every job is served with the
    service PKI, which every replica holds. Each process seals into one wire
    buffer and opens into one plaintext buffer.
    """

    def __init__(self, config: ScenarioConfig, store: UntrustedStore | None = None) -> None:
        self.loop = EventLoop()
        super().__init__(config, self.loop, store)
        self._servers: dict[str, _ReplicaServer] = {}
        self._plain = bytearray(RESPONSE_HEADER.size + config.workload.payload_bytes)
        self._wire = bytearray(len(self._plain) + RECORD_OVERHEAD)  # the largest record
        self._jobs: list[tuple] = []
        self._worker: _Worker | None = None
        self._frames: list[tuple[int, list[bytes]]] = []

    def _make_replica(self, replica_id: str, node_id: str) -> ModelServerReplica:
        replica = super()._make_replica(replica_id, node_id)
        # a worker serves every job with the PKI it inherited
        if replica.pki.certificate != self.expected_cert:
            raise ScenarioFailed(f"replica {replica_id} holds another certificate")
        self._pki = replica.pki
        self._servers[replica_id] = _ReplicaServer(self, replica)
        return replica

    def run(self) -> RunReport:
        try:
            return super().run()
        finally:
            if self._worker is not None:  # the run raised
                self._worker.end()
                self._worker = None

    # -- request path ------------------------------------------------------------------

    def _send(self, index: int) -> None:
        now = self.loop.now()
        endpoint = self._pick(index, now)
        if endpoint is not None:
            req = _Request(index, now, endpoint, self.session_seed())
            self._servers[endpoint.endpoint_id].submit(req)

    def complete_request(self, req: _Request) -> None:
        self._jobs.append((req.index, req.send_ts, req.seed, req.service_time))
        self._complete(req.endpoint, req.index, req.send_ts, self.loop.now())

    def _add(self, result: _Result) -> None:
        full, resumed, frames = result
        self.handshakes_full += full
        self.handshakes_resumed += resumed
        self._frames += frames

    def _crypto(self, jobs: list[tuple]) -> _Result:
        """Run each job's handshake and both its records, as its client and
        replica would have; each job's five frames are kept only with
        `capture_traffic`."""
        full = resumed = 0
        frames: list[tuple[int, list[bytes]]] = []
        capture: list[bytes] | None = None
        plain, wire = self._plain, self._wire
        body = memoryview(plain)[RESPONSE_HEADER.size :]
        for index, send_ts, seed, service_time in jobs:
            if self._capture is not None:
                capture = []
                frames.append((index, capture))
            rng = random.Random(seed)
            client_session, server_session = handshake_in_process(
                self.expected_cert,
                self._pki,
                rng,
                rng,
                now=send_ts,
                tickets=self.tickets,
                capture=capture,
            )
            if client_session.resumed:
                resumed += 1
            else:
                full += 1
            payload = request_payload(self.config, index)
            record = seal_record(client_session, payload, out=wire)
            if capture is not None:
                capture.append(bytes(record))
            open_record(server_session, record, out=body)
            # the response, service_time ‖ payload, is built in place
            RESPONSE_HEADER.pack_into(plain, 0, service_time)
            record = seal_record(server_session, plain, out=wire)
            if capture is not None:
                capture.append(bytes(record))
            open_record(client_session, record, out=plain)
        return full, resumed, frames

    def _drain(self) -> None:
        # every request has completed: the first job gets the ticket the
        # rest resume with, and a worker forked after it runs the second half
        jobs, self._jobs = self._jobs, []
        self._add(self._crypto(jobs[:1]))
        split = len(jobs)
        # a child inherits only this thread, not locks other threads hold
        if split >= FORK_MIN_JOBS and threading.active_count() == 1:
            split = 1 + (split - 1) // 2
            try:
                self._worker = _Worker(partial(self._crypto, jobs[split:]))
            except (AttributeError, OSError):
                split = len(jobs)  # no os.fork here, or no process to spare: all run here
        self._add(self._crypto(jobs[1:split]))
        if self._worker is not None:
            worker, self._worker = self._worker, None
            ok, result, taints = worker.answer()
            if ok:
                confine.record(taints)
                self._add(result)
            else:  # it failed or died: run its half here, raising what it met
                self._add(self._crypto(jobs[split:]))
        if self._capture is not None:
            for _, frames in sorted(self._frames):
                self._capture += frames
        self._frames = []
        # hand the buffers back
        self._plain.clear()
        self._wire.clear()


def run_scenario(config: ScenarioConfig, store: UntrustedStore | None = None) -> RunReport:
    """Execute one scenario on the virtual clock. The keystore's untrusted
    store defaults to in-memory; CLI runs pass a directory-backed one."""
    return VirtualRunner(config, store=store).run()
