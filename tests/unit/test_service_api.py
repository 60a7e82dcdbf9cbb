"""Unit tests of the ``repro serve`` HTTP API (in-process server, port 0)."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.experiments import ExperimentSpec
from repro.experiments.serialization import prediction_to_dict
from repro.service.api import make_server
from repro.service.store import ResultStore


def spec_for(topology: str = "mesh", **overrides) -> ExperimentSpec:
    kwargs = dict(topology=topology, rows=4, cols=4, traffic="uniform",
                  performance_mode="analytical")
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


@pytest.fixture
def served_store(tmp_path):
    """A store with one result, served on an OS-chosen port."""
    store = ResultStore(tmp_path / "store.sqlite")
    spec = spec_for()
    store.put(spec, prediction_to_dict(spec.run()))
    server = make_server(store, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield store, spec, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def post(url: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_healthz(served_store):
    _, _, base = served_store
    assert get(f"{base}/healthz") == (200, {"ok": True})


def test_predict_hit_returns_stored_result(served_store):
    store, spec, base = served_store
    code, body = get(f"{base}/predict?spec_id={spec.spec_id}")
    assert code == 200
    assert body["source"] == "store"
    assert body["spec_id"] == spec.spec_id
    assert body["result"] == store.get(spec.spec_id).result
    assert ExperimentSpec.from_dict(body["spec"]) == spec


def test_predict_unknown_spec_is_404(served_store):
    _, _, base = served_store
    code, body = get(f"{base}/predict?spec_id=exp-0000000000000000")
    assert code == 404
    assert "POST" in body["error"]


def test_predict_requires_spec_id(served_store):
    _, _, base = served_store
    code, body = get(f"{base}/predict")
    assert code == 400
    assert "spec_id" in body["error"]


def test_post_predict_hit_does_not_enqueue(served_store):
    store, spec, base = served_store
    code, body = get(f"{base}/stats")
    assert code == 200
    code, body = post(f"{base}/predict", spec.to_dict())
    assert code == 200
    assert body["source"] == "store"
    # Nothing was queued for a stored spec.
    code, body = get(f"{base}/stats")
    assert body["queue"] == {"pending": 0, "running": 0, "done": 0, "failed": 0}


def test_post_predict_miss_enqueues(served_store):
    _, _, base = served_store
    miss = spec_for("torus")
    code, body = post(f"{base}/predict", miss.to_dict())
    assert code == 202
    assert body["spec_id"] == miss.spec_id
    assert body["status"] == "pending"
    assert body["enqueued"] is True

    # The spec is now visible as a queued job...
    code, body = get(f"{base}/status?spec_id={miss.spec_id}")
    assert code == 200
    assert body["stored"] is False
    assert body["job"]["status"] == "pending"

    # ...and a GET while it waits reports 202, not 404.
    code, body = get(f"{base}/predict?spec_id={miss.spec_id}")
    assert code == 202
    assert body["source"] == "queue"

    # POSTing again does not create a second job.
    code, body = post(f"{base}/predict", miss.to_dict())
    assert code == 202
    assert body["enqueued"] is False


def test_post_predict_envelope_and_bad_json(served_store):
    store, spec, base = served_store
    code, body = post(f"{base}/predict", {"spec": spec.to_dict()})
    assert code == 200

    request = urllib.request.Request(
        f"{base}/predict", data=b"{not json", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 400

    code, body = post(f"{base}/predict", {"topology": "no-such-topology",
                                          "rows": 4, "cols": 4})
    assert code == 400


def test_status_never_seen_is_404(served_store):
    _, _, base = served_store
    code, body = get(f"{base}/status?spec_id=exp-0000000000000000")
    assert code == 404


def test_query_endpoint(served_store):
    store, spec, base = served_store
    code, body = get(f"{base}/query?topology=mesh")
    assert code == 200
    assert body["count"] == 1
    assert body["results"][0]["spec_id"] == spec.spec_id
    assert body["results"][0]["result"] == store.get(spec.spec_id).result

    code, body = get(f"{base}/query?topology=ring")
    assert (code, body["count"]) == (200, 0)

    code, body = get(f"{base}/query?bogus=1")
    assert code == 400
    code, body = get(f"{base}/query?limit=xyz")
    assert code == 400


def test_stats_endpoint(served_store):
    _, _, base = served_store
    code, body = get(f"{base}/stats")
    assert code == 200
    assert body["store"]["results"] == 1
    assert "queue" in body


def test_unknown_route_is_404(served_store):
    _, _, base = served_store
    assert get(f"{base}/nope")[0] == 404


def test_background_worker_drains_posted_miss(tmp_path):
    store = ResultStore(tmp_path / "store.sqlite")
    server = make_server(store, port=0, workers=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        miss = spec_for()
        code, body = post(f"{base}/predict", miss.to_dict())
        assert code == 202

        import time

        deadline = time.time() + 30.0
        while time.time() < deadline:
            code, body = get(f"{base}/status?spec_id={miss.spec_id}")
            # The worker stores the result before it marks the job done, so
            # wait for both rather than reading between the two writes.
            if code == 200 and body.get("stored") and body["job"]["status"] == "done":
                break
            time.sleep(0.1)
        assert body["stored"] is True
        assert body["job"]["status"] == "done"
        assert body["job"]["completions"] == 1

        code, body = get(f"{base}/predict?spec_id={miss.spec_id}")
        assert code == 200
        assert body["result"] == prediction_to_dict(miss.run())
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
