"""Typed wire frames of the sweep service and the cluster fabric.

Four contracts:

* **byte pins** — every frame class, and every variant with optional
  keys absent, encodes to exactly the bytes its send site wrote before
  the frames were typed, so ``PROTOCOL_VERSION`` stays 2 (the job WAL's
  records are pinned as the typed writer writes them; logs written
  before them replay through ``tests/fixtures/wal``);
* **round trip** — ``decode_frame(encode_frame(f)) == f`` for every
  frame class (Hypothesis), and re-encoding is byte-stable;
* **dispatch completeness** — each side's handler table has exactly
  one handler per frame class that side can receive, and every frame
  class is received somewhere; a live server answers every request
  class with its real reply, never ``unknown op``;
* **malformed frames** — a wrong-typed or misspelt field fails with
  the protocol's typed error on the side that received it: the
  coordinator drops the worker (and the run still completes
  byte-identically to serial), the worker raises
  ``ClusterProtocolError``, and the service answers one ``error``
  event naming the field.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterWorker, Coordinator
from repro.cluster.protocol import (
    COORDINATOR_FRAMES,
    WORKER_FRAMES,
    ClusterProtocolError,
    Goodbye,
    Heartbeat,
    PointResult,
    Register,
    ShardDone,
    ShardError,
    ShardWork,
    Shutdown,
    Welcome,
    decode_points,
    encode_obj,
    read_frame,
)
from repro.errors import ConfigurationError
from repro.exec import SerialExecutor
from repro.service import ServiceClient, SweepServer, SweepService
from repro.service.client import ServiceProtocolError
from repro.service.events import Event
from repro.service.frames import (
    REFUSALS,
    REQUESTS,
    CancelRequest,
    Deny,
    MetricsRequest,
    PingRequest,
    QuotaExceeded,
    SubmitRequest,
    WatchRequest,
)
from repro.service.endpoints import open_endpoint
from repro.service.store import (
    WAL_RECORDS,
    JobRecord,
    MetaRecord,
    StateRecord,
)
from repro.sweep import SweepResult
from repro.wire import Frame, decode_frame, encode_frame, frame_table

from tests.test_cluster import make_sweep, rows_of, square_factory


def run(coro):
    return asyncio.run(coro)


def frame_classes(base: type = Frame) -> set[type]:
    """Every concrete frame dataclass defined under ``base``."""
    found = set()
    for sub in base.__subclasses__():
        if "tag" in vars(sub):
            found.add(sub)
        found |= frame_classes(sub)
    return found


# ----------------------------------------------------------------------
# byte pins: the bytes each send site wrote before the frames were typed
# ----------------------------------------------------------------------
_SNAPSHOT = {
    "metrics": [
        {"name": "worker.cache_hits", "type": "counter",
         "tags": {"worker": "w1"}, "value": 0},
        {"name": "worker.points_done", "type": "counter",
         "tags": {"worker": "w1"}, "value": 0},
        {"name": "worker.shards_done", "type": "counter",
         "tags": {"worker": "w1"}, "value": 1},
    ]
}
_SNAPSHOT_JSON = (
    '{"metrics":[{"name":"worker.cache_hits","type":"counter",'
    '"tags":{"worker":"w1"},"value":0},{"name":"worker.points_done",'
    '"type":"counter","tags":{"worker":"w1"},"value":0},'
    '{"name":"worker.shards_done","type":"counter","tags":{"worker":"w1"},'
    '"value":1}]}'
)
_SPEC = {
    "grid": {"d": [2, 4]}, "machine": "Gold 6226", "channel": "eviction",
    "variant": "fast", "bits": 8, "trials": 1, "base_seed": 0,
    "priority": 0, "label": "pin",
}
_SPEC_JSON = (
    '{"grid":{"d":[2,4]},"machine":"Gold 6226","channel":"eviction",'
    '"variant":"fast","bits":8,"trials":1,"base_seed":0,"priority":0,'
    '"label":"pin"}'
)
_FACTORY = "gASVFQAAAAAAAACMCGJ1aWx0aW5zlIwEZGljdJSTlC4="
_POINTS = [
    [0, "gASVVAAAAAAAAACMC3JlcHJvLnN3ZWVwlIwKU3dlZXBQb2ludJSTlCmBlH2UKIwGdmFs"
        "dWVzlH2UjAF4lEsBc4wFdHJpYWyUSwCMBHNlZWSUigl7CS+wnfr0qgB1Yi4="],
    [1, "gASVUwAAAAAAAACMC3JlcHJvLnN3ZWVwlIwKU3dlZXBQb2ludJSTlCmBlH2UKIwGdmFs"
        "dWVzlH2UjAF4lEsCc4wFdHJpYWyUSwCMBHNlZWSUigj80c0L7scxT3ViLg=="],
]

#: (frame, the exact line its send site wrote with these values).
BYTE_PINS = [
    # service, client -> server
    (SubmitRequest(spec=_SPEC),
     '{"op":"submit","spec":' + _SPEC_JSON + "}"),
    (SubmitRequest(spec=_SPEC, token="t0k"),
     '{"op":"submit","spec":' + _SPEC_JSON + ',"token":"t0k"}'),
    (CancelRequest(job="job-3"), '{"op":"cancel","job":"job-3"}'),
    (CancelRequest(job="job-3", token="t0k"),
     '{"op":"cancel","job":"job-3","token":"t0k"}'),
    (PingRequest(), '{"op":"ping"}'),
    (PingRequest(token="t0k"), '{"op":"ping","token":"t0k"}'),
    (MetricsRequest(), '{"op":"metrics"}'),
    (MetricsRequest(token="t0k"), '{"op":"metrics","token":"t0k"}'),
    (WatchRequest(), '{"op":"watch"}'),
    (WatchRequest(kinds=("job-done", "cancel")),
     '{"op":"watch","kinds":["job-done","cancel"]}'),
    (WatchRequest(kinds=("job-done",), token="t0k"),
     '{"op":"watch","kinds":["job-done"],"token":"t0k"}'),
    # service, server -> client refusals
    (Deny(reason="unknown-token", message="unrecognised client token"),
     '{"event":"deny","reason":"unknown-token",'
     '"message":"unrecognised client token"}'),
    (QuotaExceeded(reason="points-per-job", message="too many points"),
     '{"event":"quota-exceeded","reason":"points-per-job",'
     '"message":"too many points"}'),
    (QuotaExceeded(reason="submit-rate", message="slow down", retry_after_s=0.25),
     '{"event":"quota-exceeded","reason":"submit-rate","message":"slow down",'
     '"retry_after_s":0.25}'),
    # cluster, worker -> coordinator
    (Register(worker="w1", slots=1, version=2),
     '{"type":"register","worker":"w1","slots":1,"version":2}'),
    (Register(worker=None, slots=1, version=2),
     '{"type":"register","worker":null,"slots":1,"version":2}'),
    (Heartbeat(worker="w1"), '{"type":"heartbeat","worker":"w1"}'),
    (PointResult(shard=3, index=5, metrics={"y": 4.0, "n": 2}, elapsed_s=0.125,
                 cached=False),
     '{"type":"point-result","shard":3,"index":5,"metrics":{"y":4.0,"n":2},'
     '"elapsed_s":0.125,"cached":false}'),
    (PointResult(shard=3, index=6, metrics={"y": 0.1}, elapsed_s=0.0,
                 cached=True),
     '{"type":"point-result","shard":3,"index":6,"metrics":{"y":0.1},'
     '"elapsed_s":0.0,"cached":true}'),
    (ShardDone(shard=3), '{"type":"shard-done","shard":3}'),
    (ShardDone(shard=3, snapshot=_SNAPSHOT),
     '{"type":"shard-done","shard":3,"snapshot":' + _SNAPSHOT_JSON + "}"),
    (ShardError(shard=4, message="shard factory decoded to non-callable int"),
     '{"type":"shard-error","shard":4,'
     '"message":"shard factory decoded to non-callable int"}'),
    (Goodbye(worker="w1"), '{"type":"goodbye","worker":"w1"}'),
    (Goodbye(worker="w1", snapshot=_SNAPSHOT),
     '{"type":"goodbye","worker":"w1","snapshot":' + _SNAPSHOT_JSON + "}"),
    # cluster, coordinator -> worker
    (Welcome(worker="peer", version=2),
     '{"type":"welcome","worker":"peer","version":2}'),
    (ShardWork(shard=0, factory=_FACTORY, points=_POINTS),
     '{"type":"shard","shard":0,"factory":"' + _FACTORY + '","points":[[0,"'
     + _POINTS[0][1] + '"],[1,"' + _POINTS[1][1] + '"]]}'),
    (Shutdown(reason="run complete"),
     '{"type":"shutdown","reason":"run complete"}'),
    (Shutdown(reason="protocol version mismatch (coordinator speaks 2)"),
     '{"type":"shutdown",'
     '"reason":"protocol version mismatch (coordinator speaks 2)"}'),
    # service job WAL records
    (MetaRecord(next_job_index=7), '{"record":"meta","next_job_index":7}'),
    (JobRecord(id="job-3", spec=_SPEC, client="alice"),
     '{"record":"job","id":"job-3","spec":' + _SPEC_JSON
     + ',"priority":0,"client":"alice"}'),
    (JobRecord(id="job-3", spec=_SPEC, priority=-1, label="nightly"),
     '{"record":"job","id":"job-3","spec":' + _SPEC_JSON
     + ',"priority":-1,"label":"nightly","client":"anonymous"}'),
    (StateRecord(id="job-3", status="running"),
     '{"record":"state","id":"job-3","status":"running"}'),
]


@pytest.mark.parametrize(
    "frame, line", BYTE_PINS, ids=[f"{type(f).__name__}-{i}" for i, (f, _) in
                                   enumerate(BYTE_PINS)]
)
def test_encoded_bytes_match_the_pinned_send_site_bytes(frame, line):
    assert encode_frame(frame) == line.encode() + b"\n"
    assert decode_frame(frame_table(type(frame)), line) == frame


def test_byte_pins_cover_every_frame_class():
    assert {type(frame) for frame, _ in BYTE_PINS} == frame_classes()
    assert len(frame_classes()) == 19


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
_text = st.text(max_size=12)


def _containers(children):
    return st.lists(children, max_size=3) | st.dictionaries(
        _text, children, max_size=3
    )


_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | _text,
    _containers,
    max_leaves=8,
)
_object = st.dictionaries(_text, _json, max_size=4)
_snapshot = st.none() | _object
_float = st.floats(allow_nan=False, allow_infinity=False)
_token = st.none() | _text

STRATEGIES = {
    SubmitRequest: st.builds(SubmitRequest, spec=_object, token=_token),
    CancelRequest: st.builds(CancelRequest, job=_text, token=_token),
    PingRequest: st.builds(PingRequest, token=_token),
    MetricsRequest: st.builds(MetricsRequest, token=_token),
    WatchRequest: st.builds(
        WatchRequest,
        kinds=st.none() | st.lists(_text, max_size=3).map(tuple),
        token=_token,
    ),
    Deny: st.builds(Deny, reason=_text, message=_text),
    QuotaExceeded: st.builds(
        QuotaExceeded, reason=_text, message=_text,
        retry_after_s=st.none() | _float,
    ),
    Register: st.builds(
        Register, worker=st.none() | _text, slots=st.integers(),
        version=st.integers(),
    ),
    Heartbeat: st.builds(Heartbeat, worker=_text),
    PointResult: st.builds(
        PointResult, shard=st.integers(), index=st.integers(),
        metrics=_object, elapsed_s=_float, cached=st.booleans(),
    ),
    ShardDone: st.builds(ShardDone, shard=st.integers(), snapshot=_snapshot),
    ShardError: st.builds(ShardError, shard=st.integers(), message=_text),
    Goodbye: st.builds(Goodbye, worker=_text, snapshot=_snapshot),
    Welcome: st.builds(Welcome, worker=_text, version=st.integers()),
    ShardWork: st.builds(
        ShardWork, shard=st.integers(), factory=_text, points=_json
    ),
    Shutdown: st.builds(Shutdown, reason=_text),
    MetaRecord: st.builds(MetaRecord, next_job_index=st.integers(min_value=1)),
    JobRecord: st.builds(
        JobRecord, id=_text, spec=_object, priority=st.integers(),
        label=_token, client=_text,
    ),
    StateRecord: st.builds(StateRecord, id=_text, status=_text),
}


def test_every_frame_class_has_a_round_trip_strategy():
    assert set(STRATEGIES) == frame_classes()


@pytest.mark.parametrize("cls", sorted(STRATEGIES, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_is_identity_and_bytes_are_stable(cls, data):
    frame = data.draw(STRATEGIES[cls])
    line = encode_frame(frame)
    decoded = decode_frame(frame_table(cls), line)
    assert decoded == frame
    assert encode_frame(decoded) == line


# ----------------------------------------------------------------------
# strict decoding
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "line, match",
    [
        (b"not json", "undecodable frame"),
        (b"[1, 2]", "JSON object with a 'type' tag"),
        (b'{"shard": 1}', "JSON object with a 'type' tag"),
        (b'{"type": "launch"}', "unknown type 'launch'"),
        (b'{"type": ["shard"]}', "unknown type"),
        (b'{"type": "shard-done"}', r"missing required field\(s\) \['shard'\]"),
        (b'{"type": "shard-done", "shard": 1, "shrad": 1}', "'shrad'"),
        (b'{"type": "shard-done", "shard": "1"}', "'shard' must be an int"),
        (b'{"type": "shard-done", "shard": true}', "'shard' must be an int"),
        (b'{"type": "point-result", "shard": 1, "index": 0, "metrics": [],'
         b' "elapsed_s": 0, "cached": false}', "'metrics' must be an object"),
    ],
)
def test_cluster_decode_refuses_malformed_frames(line, match):
    with pytest.raises(ClusterProtocolError, match=match):
        decode_frame(WORKER_FRAMES, line, ClusterProtocolError)


@pytest.mark.parametrize(
    "line, match",
    [
        (b'{"record": "meta", "next_job_index": 0}', "must be >= 1"),
        (b'{"record": "job", "id": "job-1"}', r"\['spec'\]"),
        (b'{"record": "job", "id": "job-1", "spec": {}, "label": 3}',
         "'label' must be a string"),
        (b'{"record": "state", "id": "job-1", "status": null}',
         "'status' must be a string"),
        (b'{"record": "future-kind"}', "unknown record 'future-kind'"),
    ],
)
def test_wal_decode_refuses_malformed_records(line, match):
    with pytest.raises(ConfigurationError, match=match):
        decode_frame(WAL_RECORDS, line)


def test_service_decode_raises_configuration_error_naming_the_op():
    with pytest.raises(ConfigurationError, match="unknown op 'launch-missiles'"):
        decode_frame(REQUESTS, b'{"op": "launch-missiles"}')


def test_encode_refuses_values_json_cannot_carry():
    with pytest.raises(ConfigurationError, match="cannot encode set"):
        encode_frame(PointResult(shard=1, index=0, metrics={"x": {1, 2}},
                                 elapsed_s=0.0, cached=False))


def test_values_pass_through_decoding_unchanged():
    """ints inside metrics, snapshots and specs must stay ints: serial ==
    cluster byte identity depends on it."""
    line = encode_frame(
        PointResult(shard=1, index=2, metrics={"n": 3, "x": 1.0},
                    elapsed_s=1, cached=False)
    )
    frame = decode_frame(WORKER_FRAMES, line)
    assert type(frame.metrics["n"]) is int
    assert type(frame.metrics["x"]) is float
    assert type(frame.elapsed_s) is float
    submit = decode_frame(REQUESTS, encode_frame(SubmitRequest(spec={"bits": 8})))
    assert type(submit.spec["bits"]) is int


def test_read_frame_returns_none_at_eof_and_raises_on_damage():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(b'{"type": "shutdown", "reason": "done"}\n{"type": 1}\n')
        reader.feed_eof()
        first = await read_frame(reader, COORDINATOR_FRAMES)
        with pytest.raises(ClusterProtocolError):
            await read_frame(reader, COORDINATOR_FRAMES)
        return first, await read_frame(reader, COORDINATOR_FRAMES)

    assert run(scenario()) == (Shutdown(reason="done"), None)


def test_client_raises_protocol_error_on_a_malformed_refusal():
    with pytest.raises(ServiceProtocolError, match="retry_after_s"):
        ServiceClient._parse_frame(
            b'{"event": "quota-exceeded", "reason": "r", "message": "m",'
            b' "retry_after_s": "soon"}\n'
        )


@pytest.mark.parametrize(
    "line",
    [b"not json", b"[1, 2]", b'{"job": "job-1"}', b'{"event": 3}',
     b'{"event": null, "job": "job-1"}', b"\xff\xfe"],
    ids=["not-json", "array", "no-tag", "int-tag", "null-tag", "not-utf8"],
)
def test_client_raises_protocol_error_on_a_non_event_line(line):
    with pytest.raises(ValueError, match="not a service event|Expecting|codec"):
        Event.from_json(line)
    with pytest.raises(ServiceProtocolError, match="undecodable frame"):
        ServiceClient._parse_frame(line + b"\n")


def test_event_refuses_values_json_cannot_carry():
    with pytest.raises(TypeError, match="set"):
        Event("job-done", {"rows": {1, 2}}).to_json()


# ----------------------------------------------------------------------
# dispatch completeness
# ----------------------------------------------------------------------
def test_server_handles_exactly_the_request_frames():
    assert set(SweepServer._HANDLERS) == set(REQUESTS.values())


def test_coordinator_handles_exactly_the_worker_frames():
    assert set(Coordinator._HANDLERS) == set(WORKER_FRAMES.values())


def test_worker_handles_exactly_the_coordinator_frames():
    assert set(ClusterWorker._HANDLERS) == set(COORDINATOR_FRAMES.values())


def test_client_maps_exactly_the_refusal_frames():
    from repro.service.client import _REFUSAL_ERRORS

    assert set(_REFUSAL_ERRORS) == set(REFUSALS.values())


def test_every_frame_class_is_received_somewhere():
    received = (
        set(REQUESTS.values())
        | set(REFUSALS.values())
        | set(WORKER_FRAMES.values())
        | set(COORDINATOR_FRAMES.values())
        | {Register, Welcome}  # the two handshake frames
        | set(WAL_RECORDS.values())  # JobStore.replay
    )
    assert received == frame_classes()


#: One instance of every request class, with the event it must answer.
LIVE_REQUESTS = {
    SubmitRequest: (SubmitRequest(spec={"grid": {"d": [2]}, "bits": 8}),
                    "submitted"),
    CancelRequest: (CancelRequest(job="job-999"), "cancel"),
    PingRequest: (PingRequest(), "pong"),
    MetricsRequest: (MetricsRequest(), "metrics"),
    WatchRequest: (WatchRequest(kinds=("job-done",)), "watching"),
}


def test_live_server_answers_every_request_class(tmp_path):
    assert set(LIVE_REQUESTS) == set(REQUESTS.values())
    sock = tmp_path / "svc.sock"

    async def scenario():
        server = SweepServer(SweepService(batch_size=4), sock)
        await server.start()
        answers = {}
        try:
            for cls, (request, _) in LIVE_REQUESTS.items():
                reader, writer = await asyncio.open_unix_connection(str(sock))
                writer.write(encode_frame(request))
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), 30)
                answers[cls] = Event.from_json(line.decode())
                if cls is SubmitRequest:  # let the job finish cleanly
                    while await asyncio.wait_for(reader.readline(), 60):
                        pass
                writer.close()
        finally:
            await server.stop()
        return answers

    answers = run(scenario())
    for cls, (_, expected) in LIVE_REQUESTS.items():
        assert answers[cls].kind == expected, (cls.__name__, answers[cls])


# ----------------------------------------------------------------------
# malformed values: a typed error on the receiving side
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "bad_frame",
    [
        {"type": "point-result", "shard": "x", "index": 0, "metrics": {},
         "elapsed_s": 0.0, "cached": False},
        {"type": "shard-done", "shard": [1]},
    ],
    ids=["point-result-shard-str", "shard-done-shard-list"],
)
def test_worker_with_a_malformed_frame_is_dropped_and_the_run_completes(
    bad_frame,
):
    sweep = make_sweep(xs=(1, 2, 3))
    serial = make_sweep(xs=(1, 2, 3)).run(executor=SerialExecutor())
    events = []
    unhandled = []

    async def scenario():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context)
        )
        pending = list(enumerate(sweep.points()))
        coordinator = Coordinator(
            pending, square_factory, shard_size=8, heartbeat_timeout=5.0,
            retry_backoff_s=0.01, on_event=events.append,
        )
        address = await coordinator.start("tcp://127.0.0.1:0")
        # A hostile stub: registers, takes the shard, answers garbage.
        reader, writer = await open_endpoint(address)
        writer.write(
            b'{"type":"register","worker":"garbled","slots":1,"version":2}\n'
        )
        await writer.drain()
        await reader.readline()  # welcome
        await reader.readline()  # the shard
        writer.write(json.dumps(bad_frame).encode() + b"\n")
        await writer.drain()
        worker = asyncio.ensure_future(
            ClusterWorker(address, name="real", heartbeat_interval=0.1).run()
        )
        try:
            results = await asyncio.wait_for(coordinator.results(), 30)
        finally:
            await coordinator.stop()
            worker.cancel()
            await asyncio.gather(worker, return_exceptions=True)
            writer.close()
        return results

    results = run(scenario())
    points = sweep.points()
    table = sweep.build_table(
        [SweepResult(point=points[i], metrics=m) for i, m, _ in results]
    )
    assert json.dumps(rows_of(table)) == json.dumps(rows_of(serial))
    lost = [e for e in events if e.kind == "worker-lost"]
    assert [e["worker"] for e in lost][:1] == ["garbled"]
    assert unhandled == []  # dropped through the typed-error path


def test_coordinator_sending_a_malformed_shard_raises_cluster_protocol_error():
    async def scenario():
        async def fake_coordinator(reader, writer):
            await reader.readline()  # register
            writer.write(b'{"type":"welcome","worker":"w","version":2}\n')
            writer.write(
                b'{"type":"shard","shard":"x","factory":"","points":[]}\n'
            )
            await writer.drain()
            await reader.read()  # until the worker hangs up
            writer.close()

        server = await asyncio.start_server(fake_coordinator, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            worker = ClusterWorker(
                f"tcp://127.0.0.1:{port}", name="w", heartbeat_interval=5.0
            )
            with pytest.raises(ClusterProtocolError, match="'shard'"):
                await asyncio.wait_for(worker.run(), 30)
        finally:
            server.close()
            await server.wait_closed()

    run(scenario())


def test_shard_point_with_a_non_int_index_is_a_protocol_error():
    point = make_sweep(xs=(1,)).points()[0]
    with pytest.raises(ClusterProtocolError, match="index"):
        decode_points([["x", encode_obj(point)]])


@pytest.mark.parametrize(
    "request_line, field",
    [
        (b'{"op": "ping", "tokn": "t"}', "tokn"),
        (b'{"op": "watch", "kinds": [1]}', "kinds"),
        (b'{"op": "cancel", "job": 3}', "job"),
    ],
    ids=["ping-misspelt-token", "watch-kinds-not-strings", "cancel-job-int"],
)
def test_malformed_request_gets_exactly_one_error_event_naming_the_field(
    tmp_path, request_line, field
):
    sock = tmp_path / "svc.sock"

    async def scenario():
        server = SweepServer(SweepService(), sock)
        await server.start()
        try:
            reader, writer = await asyncio.open_unix_connection(str(sock))
            writer.write(request_line + b"\n")
            await writer.drain()
            lines = []
            while line := await asyncio.wait_for(reader.readline(), 10):
                lines.append(line)
            writer.close()
        finally:
            await server.stop()
        return [Event.from_json(line.decode()) for line in lines]

    replies = run(scenario())
    assert [event.kind for event in replies] == ["error"]
    assert f"'{field}" in str(replies[0]["message"])
