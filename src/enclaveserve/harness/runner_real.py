"""Real-clock scenario execution over loopback sockets.

Wall-clock counterpart of the virtual runner, intended for smoke runs and
sanity checks rather than acceptance numbers: replicas listen on loopback
TCP ports, each request is one connection carrying a handshake (resumed
from the runner's ticket cache once it holds a ticket) and encrypted
records, and service time is spent sleeping. Timing is therefore
subject to scheduler jitter and runs are not reproducible.
"""

from __future__ import annotations

import socket
import tempfile
import threading
import time
from pathlib import Path

from .. import crypto
from ..aecs.service import AECS_MEASUREMENT, AecsDeployment, AecsReplica
from ..aecs.store import MemoryStore, UntrustedStore
from ..channel.errors import SecureChannelError
from ..channel.handshake import TicketCache, client_handshake, server_handshake
from ..channel.record import open_record, seal_record
from ..channel.transport import SocketTransport
from ..clock import RealClock
from ..control.slo import SloController, SloPolicy, observation_from_samples
from ..control.telemetry import NodeTelemetry, collect, epc_csv_row, service_csv_row
from ..serving.errors import NoEligibleEndpoint
from ..serving.frontend import Endpoint, VirtualService
from ..serving.replica import (
    ModelServerReplica,
    decode_inference_response,
    encode_inference_response,
    replica_cpu_utilization,
    start_replica,
)
from ..substrate.node import EnclaveSpec, MIB, NodeSpec, Substrate
from .errors import ScenarioFailed
from .metrics import Recorder, RequestRecord, RunReport, STATUS_OK, STATUS_REJECTED, STATUS_TIMEOUT
from .runner import AECS_ENCLAVE_REQUESTED, AECS_ENCLAVE_WORKING_SET, INTERFERENCE_MEASUREMENT
from .scenario import ScenarioConfig
from .workload import WorkloadSpec, generate_arrivals, request_payload


class _ReplicaListener:
    """Loopback TCP server for one replica; `parallelism` bounds the number
    of requests being serviced at once, later arrivals queue on the semaphore."""

    def __init__(self, runner: "RealRunner", replica: ModelServerReplica) -> None:
        self.runner = runner
        self.replica = replica
        self.semaphore = threading.Semaphore(replica.parallelism)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(128)
        self.port = self.sock.getsockname()[1]
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._accept_loop, daemon=True)
        self.thread.start()

    def _accept_loop(self) -> None:
        self.sock.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=self._serve_one, args=(conn,), daemon=True).start()

    def _serve_one(self, conn: socket.socket) -> None:
        clock = self.runner.clock
        try:
            with conn:
                transport = SocketTransport(conn)
                session = server_handshake(
                    transport, self.replica.pki, self.runner.server_rng(), now=clock.now()
                )
                payload = open_record(session, transport.recv_frame(10.0))
                with self.semaphore:
                    token = self.replica.begin_request(clock.now())
                    response, service_time = self.replica.serve_inference(payload)
                    time.sleep(service_time)
                    self.replica.end_request(token, clock.now())
                transport.send_frame(
                    seal_record(session, encode_inference_response(response, service_time))
                )
        except (SecureChannelError, OSError):
            pass

    def stop(self) -> None:
        self._stop.set()
        self.sock.close()


class RealRunner:
    def __init__(self, config: ScenarioConfig, store: UntrustedStore | None = None) -> None:
        self.config = config
        self.profile = config.profile
        self.store = store if store is not None else MemoryStore()
        self.clock = RealClock()
        self.recorder = Recorder()
        self.epc_rows: list[str] = []
        self.service_rows: list[str] = []
        self._rng_lock = threading.Lock()
        self._crypto_rng = crypto.derived_rng(config.seed, "session-crypto")
        self.tickets = TicketCache()
        self.handshakes_full = 0
        self.handshakes_resumed = 0
        self._count_lock = threading.Lock()
        self.listeners: dict[str, _ReplicaListener] = {}
        self.vs: VirtualService | None = None
        self.controller: SloController | None = None
        self._telemetry: dict[str, NodeTelemetry] = {}
        self._stop = threading.Event()

    def server_rng(self):
        with self._rng_lock:
            seed = self._crypto_rng.getrandbits(64)
        import random

        return random.Random(seed)

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
                    cpu_cores=node_config.cores,
                ),
                t_ref=config.t_ref_pages_per_s,
            )
            self._telemetry[node_config.node_id] = NodeTelemetry(node_config.node_id)

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
            if not hasattr(self, "aecs_client"):
                self.aecs_client = replica.client()

        self.aecs_client.create_service_pki(config.service_id, self.profile.measurement())
        self.expected_cert = self.aecs_client.get_certificate(config.service_id)

        frontend_algorithm = "sed" if config.algorithm == "sgx_aware" else config.algorithm
        self.vs = VirtualService(config.service_id, frontend_algorithm)
        for placement in config.replica_placements:
            replica = start_replica(
                service_id=config.service_id,
                replica_id=placement.replica_id,
                aecs_client=self.aecs_client,
                node=self.substrate.node(placement.node_id),
                enclave_spec=self.profile.enclave_spec(
                    f"{config.service_id}/{placement.replica_id}"
                ),
                base_inference_time=self.profile.base_time_s,
                rng=crypto.derived_rng(config.seed, f"replica:{placement.replica_id}"),
                parallelism=config.parallelism,
            )
            self.vs.add_endpoint(Endpoint(endpoint_id=placement.replica_id, replica=replica))
            self.listeners[placement.replica_id] = _ReplicaListener(self, replica)

        if config.algorithm == "sgx_aware":
            assert config.slo is not None
            self.controller = SloController(
                SloPolicy(
                    service_id=config.service_id,
                    slo_p99=self.profile.slo_s,
                    boundary_pages_per_s=config.slo.boundary_pages_per_s,
                    threshold_fraction=config.slo.theta,
                    consecutive_cycles=config.slo.consecutive_cycles,
                    sample_interval=config.slo.sample_interval_s,
                ),
                self.vs,
            )

    def _interference_timers(self) -> list[threading.Timer]:
        timers: list[threading.Timer] = []
        for script_index, script in enumerate(self.config.interference):
            node = self.substrate.node(script.node_id)
            for window_index, (start, end) in enumerate(script.windows):
                spec = EnclaveSpec(
                    enclave_id=f"stress-{script.node_id}-{script_index}-{window_index}",
                    measurement=INTERFERENCE_MEASUREMENT,
                    requested_epc_bytes=script.epc_mib * MIB,
                    working_set_bytes=script.epc_mib * MIB,
                    page_access_rate=script.rate_pages_per_s,
                )
                timers.append(threading.Timer(start, node.launch_enclave, args=(spec,)))

                def stop(node=node, enclave_id=spec.enclave_id) -> None:
                    handle = node.enclave_handle(enclave_id)
                    if handle is not None:
                        node.terminate_enclave(handle)

                timers.append(threading.Timer(end, stop))
        return timers

    def _control_loop(self) -> None:
        interval = self.config.slo.sample_interval_s if self.config.slo else 1.0
        assert self.vs is not None
        while not self._stop.wait(interval):
            now = self.clock.now()
            for node in self.substrate.nodes():
                sample = collect(node)
                self._telemetry[node.node_id].add(sample)
                self.epc_rows.append(epc_csv_row(sample))
            if self.controller is not None:
                observations = {
                    node_id: observation_from_samples(t.window(2))
                    for node_id, t in self._telemetry.items()
                }
                self.controller.step(observations, now)
            for ep in self.vs.endpoints():
                self.service_rows.append(
                    service_csv_row(
                        now,
                        self.config.service_id,
                        ep.endpoint_id,
                        ep.weight,
                        ep.active_connections,
                        replica_cpu_utilization(ep.replica, window=interval, now=now),
                    )
                )

    def _request(self, spec: WorkloadSpec, index: int, send_ts: float) -> None:
        assert self.vs is not None
        self.recorder.count_send()
        try:
            endpoint = self.vs.pick_endpoint()
        except NoEligibleEndpoint:
            self.recorder.record(
                RequestRecord(index, send_ts, send_ts, "", spec.timeout_s, STATUS_REJECTED)
            )
            return
        self.vs.dispatch(endpoint)
        listener = self.listeners[endpoint.endpoint_id]
        try:
            with socket.create_connection(("127.0.0.1", listener.port), timeout=spec.timeout_s) as sock:
                transport = SocketTransport(sock)
                session = client_handshake(
                    transport,
                    self.expected_cert,
                    self.server_rng(),
                    now=self.clock.now(),
                    tickets=self.tickets,
                    timeout=spec.timeout_s,
                )
                with self._count_lock:
                    if session.resumed:
                        self.handshakes_resumed += 1
                    else:
                        self.handshakes_full += 1
                transport.send_frame(seal_record(session, request_payload(spec, index)))
                response = open_record(session, transport.recv_frame(spec.timeout_s))
                decode_inference_response(response)
            now = self.clock.now()
            self.recorder.record(
                RequestRecord(index, send_ts, now, endpoint.endpoint_id, now - send_ts, STATUS_OK)
            )
        except (SecureChannelError, OSError):
            self.recorder.record(
                RequestRecord(
                    index,
                    send_ts,
                    send_ts + spec.timeout_s,
                    endpoint.endpoint_id,
                    spec.timeout_s,
                    STATUS_TIMEOUT,
                )
            )
        finally:
            self.vs.complete(endpoint)

    def run(self) -> RunReport:
        config = self.config
        with tempfile.TemporaryDirectory(prefix="enclaveserve-sealed-") as sealed_root:
            try:
                self._build_cluster(Path(sealed_root))
            except Exception as exc:
                raise ScenarioFailed(f"scenario setup failed: {exc}") from exc
            spec = WorkloadSpec(
                service_id=config.service_id,
                rate_per_s=config.workload.rate_per_s,
                duration_s=config.duration_s,
                rng_seed=config.seed,
                payload_bytes=config.workload.payload_bytes,
                timeout_s=config.workload.timeout_s,
            )
            arrivals = generate_arrivals(spec)
            timers = self._interference_timers()
            for timer in timers:
                timer.start()
            control_thread = threading.Thread(target=self._control_loop, daemon=True)
            control_thread.start()

            workers: list[threading.Thread] = []
            for index, when in enumerate(arrivals):
                delay = when - self.clock.now()
                if delay > 0:
                    time.sleep(delay)
                worker = threading.Thread(
                    target=self._request, args=(spec, index, self.clock.now()), daemon=True
                )
                worker.start()
                workers.append(worker)
            deadline = time.monotonic() + spec.timeout_s + 1.0
            for worker in workers:
                worker.join(max(0.0, deadline - time.monotonic()))
            self._stop.set()
            control_thread.join(2.0)
            for timer in timers:
                timer.cancel()
            for listener in self.listeners.values():
                listener.stop()
        assert self.vs is not None
        return RunReport(
            scenario=config.name,
            seed=config.seed,
            model=config.model,
            algorithm=config.algorithm,
            duration_s=config.duration_s,
            slo_s=self.profile.slo_s,
            records=self.recorder.records(),
            sent=self.recorder.sent,
            weight_events=list(self.vs.weight_log),
            epc_rows=list(self.epc_rows),
            service_rows=list(self.service_rows),
        )


def run_scenario_real(config: ScenarioConfig, store: UntrustedStore | None = None) -> RunReport:
    """Execute one scenario on the wall clock over loopback sockets."""
    return RealRunner(config, store=store).run()
