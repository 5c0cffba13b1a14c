"""Multi-process graph service: correctness, admission, protocol, lifecycle.

The service invariant mirrors the storage one: answers served over the
wire are exactly the answers of a locally loaded graph -- worker count,
mmap sharing and connection scheduling are invisible to clients.
Failures arrive as structured error frames carrying the server-side
exception class name and its ``retry_after`` hint, never as silently
wrong or truncated answers.
"""

import os
import pathlib
import random
import select
import signal
import socket
import struct
import subprocess
import sys
import threading

import pytest

from repro.core import compress
from repro.core.serialize import load_compressed, save_compressed
from repro.graph.builders import graph_from_contacts
from repro.graph.model import Contact, GraphKind
from repro.service import (
    GraphService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service import protocol
from repro.service.protocol import recv_message, send_message
from repro.storage.segments import SegmentStore, StorePolicy

N_NODES = 120
T_MAX = 4000


def _contacts(seed=23, m=9000):
    rng = random.Random(seed)
    rows = []
    for _ in range(m):
        u = rng.randrange(N_NODES)
        v = rng.randrange(N_NODES)
        if u == v:
            continue
        rows.append(Contact(u, v, rng.randrange(T_MAX), 0))
    return rows


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    path = tmp_path_factory.mktemp("service") / "graph.chrono"
    cg = compress(
        graph_from_contacts(GraphKind.POINT, _contacts(), num_nodes=N_NODES)
    )
    save_compressed(cg, path)
    return path


@pytest.fixture(scope="module")
def local(container):
    return load_compressed(container)


@pytest.fixture(scope="module")
def service(container):
    svc = GraphService(str(container), ServiceConfig(workers=2))
    svc.start()
    yield svc
    svc.stop()


def _client(service, **kwargs):
    host, port = service.address
    return ServiceClient(host, port, **kwargs)


class TestServedAnswersMatchLocal:
    def test_point_queries(self, service, local):
        with _client(service) as client:
            for u in range(0, N_NODES, 7):
                assert client.neighbors(u, 0, T_MAX) == local.neighbors(
                    u, 0, T_MAX
                )
                assert client.edge_timestamps(
                    u, (u + 1) % N_NODES
                ) == local.edge_timestamps(u, (u + 1) % N_NODES)
                assert client.has_edge(
                    u, (u + 2) % N_NODES, 100, 900
                ) == local.has_edge(u, (u + 2) % N_NODES, 100, 900)

    def test_batch_and_snapshot(self, service, local):
        queries = [(u, 50, 1800) for u in range(N_NODES)]
        with _client(service) as client:
            assert client.neighbors_many(queries) == local.neighbors_many(
                queries
            )
            assert client.snapshot(200, 1400) == local.snapshot(200, 1400)

    def test_complete_answers_report_no_skips(self, service):
        with _client(service, allow_partial=True) as client:
            client.neighbors(3, 0, T_MAX)
            assert client.last_skipped == []


class TestMultiProcessSharing:
    def test_concurrent_clients_agree_with_local(self, service, local):
        """Eight threads, each with its own connection, all bit-identical."""
        expected = [local.neighbors(u, 0, T_MAX) for u in range(16)]
        failures = []

        def worker():
            try:
                with _client(service) as client:
                    got = [client.neighbors(u, 0, T_MAX) for u in range(16)]
                    if got != expected:
                        failures.append(got)
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert failures == []

    def test_at_least_two_workers_answer(self, service):
        """Connections are spread across worker processes sharing one map."""
        pids = set()
        for _ in range(50):
            with _client(service) as client:
                pids.add(client.ping()["pid"])
            if len(pids) >= 2:
                break
        assert len(pids) >= 2

    def test_stats_report_graph_counts(self, service, local):
        with _client(service) as client:
            stats = client.stats()
        assert stats["num_nodes"] == local.num_nodes
        assert stats["num_contacts"] == local.num_contacts
        assert "governor" in stats


class TestAdmissionControl:
    def test_tenant_budget_sheds_with_retry_after(self, container):
        config = ServiceConfig(
            workers=1, tenant_rate=0.000001, tenant_burst=1.0
        )
        with GraphService(str(container), config) as svc:
            with _client(svc, tenant="hog") as client:
                client.neighbors(0, 0, 10)  # consumes the whole burst
                with pytest.raises(ServiceError) as info:
                    client.neighbors(1, 0, 10)
        assert info.value.error_type == "RejectedError"
        assert info.value.retry_after is not None

    def test_timeout_maps_to_query_timeout(self, service):
        with _client(service, timeout_ms=1) as client:
            with pytest.raises(ServiceError) as info:
                client.snapshot(0, T_MAX)
        assert info.value.error_type == "QueryTimeout"


class TestProtocolErrors:
    def test_unknown_op_is_rejected(self, service):
        with _client(service) as client:
            with pytest.raises(ServiceError) as info:
                client._call("explode")
        assert info.value.error_type == "ProtocolError"

    def test_bad_arguments_are_rejected(self, service):
        bad = [
            ("neighbors", {"args": "nope"}),
            # Wrong arity used to escape as a ValueError and kill the
            # connection thread instead of answering with an error frame.
            ("neighbors", {"args": [1, 2]}),
            ("has_edge", {"args": [1, 2, 3]}),
            ("edge_timestamps", {"args": [1]}),
            # Non-integral numbers and booleans are refused, not coerced.
            ("neighbors", {"args": [2.7, 0, 10]}),
            ("neighbors", {"args": [True, 0, 10]}),
            ("neighbors_many", {"queries": [[1, 0, 10], [1.5, 0, 10]]}),
            ("neighbors_many", {"queries": [[1, 0]]}),
        ]
        with _client(service) as client:
            for op, params in bad:
                with pytest.raises(ServiceError) as info:
                    client._call(op, params)
                assert info.value.error_type == "ProtocolError", (op, params)
                # The same connection still answers after a bad request.
                assert client.ping()["pong"]

    def test_integral_float_arguments_are_accepted(self, service, local):
        with _client(service) as client:
            got = client._call("neighbors", {"args": [3.0, 0, float(T_MAX)]})
        assert got == local.neighbors(3, 0, T_MAX)

    @pytest.mark.parametrize("timeout", [b"NaN", b"Infinity", b"true", b"1e400"])
    def test_non_finite_timeout_is_rejected(self, service, timeout):
        # Raw frames: json.loads accepts NaN and Infinity, and NaN used to
        # slip past the max_timeout ceiling as a deadline that never expires.
        host, port = service.address
        payload = (
            b'{"id":7,"op":"neighbors","params":{"args":[0,0,10]},'
            b'"timeout_ms":' + timeout + b"}"
        )
        with socket.create_connection((host, port), timeout=10) as raw:
            raw.sendall(struct.pack("!I", len(payload)) + payload)
            response = recv_message(raw)
            assert response is not None and not response["ok"]
            assert response["id"] == 7
            assert response["error"]["type"] == "ProtocolError"
            send_message(raw, {"id": 8, "op": "ping"})
            assert recv_message(raw)["ok"]

    @pytest.mark.parametrize(
        "allow_partial, accepted",
        [
            (b"null", True), (b"true", True), (b"false", True),
            (b'"false"', False), (b'"no"', False), (b"1", False),
            (b"0", False), (b"[]", False),
        ],
    )
    def test_allow_partial_must_be_boolean(
        self, service, local, allow_partial, accepted
    ):
        # Raw frames: a truthy string or number used to consent to
        # breaker-skipped subset answers.
        host, port = service.address
        payload = (
            b'{"id":7,"op":"neighbors","params":{"args":[0,0,10]},'
            b'"allow_partial":' + allow_partial + b"}"
        )
        with socket.create_connection((host, port), timeout=10) as raw:
            raw.sendall(struct.pack("!I", len(payload)) + payload)
            response = recv_message(raw)
            assert response is not None and response["id"] == 7
            if accepted:
                assert response["result"] == local.neighbors(0, 0, 10)
            else:
                assert response["error"]["type"] == "ProtocolError"
            send_message(raw, {"id": 8, "op": "ping"})
            assert recv_message(raw)["ok"]

    def test_oversized_answer_gets_error_frame(self, tmp_path, monkeypatch):
        # Lower the frame limit before the service forks, so its worker
        # builds a snapshot answer too large to send.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 2000)
        rows = [(u, (u + i) % 60, i) for u in range(60) for i in range(1, 9)]
        path = tmp_path / "small.chrono"
        save_compressed(
            compress(graph_from_contacts(GraphKind.POINT, rows, num_nodes=60)),
            path,
        )
        with GraphService(str(path), ServiceConfig(workers=1)) as svc:
            with _client(svc) as client:
                with pytest.raises(ServiceError) as info:
                    client.snapshot(0, 500)
                assert info.value.error_type == "ProtocolError"
                assert client.ping()["pong"]

    def test_negative_timeout_is_rejected(self, service):
        with _client(service, timeout_ms=-5) as client:
            with pytest.raises(ServiceError) as info:
                client.neighbors(0, 0, 10)
        assert info.value.error_type == "ProtocolError"

    def test_out_of_range_node_maps_domain_error(self, service):
        with _client(service) as client:
            with pytest.raises(ServiceError) as info:
                client.neighbors(10**9, 0, 10)
        assert info.value.error_type == "GraphDomainError"

    def test_malformed_frame_gets_error_then_hangup(self, service):
        host, port = service.address
        with socket.create_connection((host, port), timeout=10) as raw:
            payload = b"this is not json"
            raw.sendall(struct.pack("!I", len(payload)) + payload)
            response = recv_message(raw)
            assert response is not None and not response["ok"]
            assert recv_message(raw) is None  # server hung up

    def test_request_must_be_object(self, service):
        host, port = service.address
        with socket.create_connection((host, port), timeout=10) as raw:
            payload = b"[1, 2, 3]"
            raw.sendall(struct.pack("!I", len(payload)) + payload)
            response = recv_message(raw)
            assert response is not None and not response["ok"]

    def test_response_ids_echo_requests(self, service):
        host, port = service.address
        with socket.create_connection((host, port), timeout=10) as raw:
            send_message(raw, {"id": 941, "op": "ping"})
            response = recv_message(raw)
        assert response["id"] == 941 and response["ok"]


class TestLifecycle:
    def test_stop_refuses_new_connections(self, container):
        svc = GraphService(str(container), ServiceConfig(workers=1))
        host, port = svc.start()
        with ServiceClient(host, port) as client:
            assert client.ping()["pong"]
        svc.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="forked workers only")
    def test_sigterm_stops_supervisor_and_joins_workers(self, container, tmp_path):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        # stderr goes to a file: an orphaned worker would hold a pipe open.
        log = tmp_path / "serve.err"
        with open(log, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", str(container),
                 "--workers", "1", "--port", "0"],
                stdout=subprocess.PIPE,
                stderr=err,
                text=True,
                env=env,
            )
        worker = None
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            assert ready, "serve printed no address within 30 s"
            banner = proc.stdout.readline()
            url = next(word for word in banner.split() if word.startswith("tcp://"))
            with ServiceClient.from_url(url) as client:
                worker = client.stats()["pid"]
            assert worker != proc.pid
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0, log.read_text()
            # The supervisor joined its worker: nothing is left serving.
            with pytest.raises(ProcessLookupError):
                os.kill(worker, 0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            if worker is not None:
                try:  # never leave an orphaned worker behind a failure
                    os.kill(worker, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_from_url_validation(self):
        from repro.errors import DomainError

        with pytest.raises(DomainError):
            ServiceClient.from_url("http://127.0.0.1:80")
        with pytest.raises(DomainError):
            ServiceClient.from_url("tcp://nohost:notaport")


class TestSegmentStoreTarget:
    def test_service_over_store_directory(self, tmp_path):
        root = tmp_path / "store"
        store = SegmentStore.create(
            root, GraphKind.POINT, policy=StorePolicy(seal_contacts=400)
        )
        store.ingest(_contacts(seed=5, m=1500))
        store.seal()
        expected = {
            u: store.graph.neighbors(u, 0, T_MAX) for u in range(0, 40, 3)
        }
        store.close()

        with GraphService(str(root), ServiceConfig(workers=2)) as svc:
            with _client(svc) as client:
                for u, answer in expected.items():
                    assert client.neighbors(u, 0, T_MAX) == answer
