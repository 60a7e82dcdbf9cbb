"""Load generation: open-loop and closed-loop request loops, plus HTTP.

An open loop sends request ``i`` when it is due (``start + i / rate``),
whatever happened to earlier requests, and times each request from its due
time — so a stall shows up in every request that queued behind it, not only
in the one that stalled.  A closed loop has each client send its next
request only after the previous reply, so it measures capacity.
"""

from __future__ import annotations

import http.client
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class OpenLoopResult:
    """Per-request timings of one open-loop phase (all in seconds)."""

    latencies: list[float] = field(default_factory=list)  # due -> reply
    lateness: list[float] = field(default_factory=list)  # due -> actually sent
    service: list[float] = field(default_factory=list)  # sent -> reply
    outcomes: list[Any] = field(default_factory=list)


def open_loop(
    send: Callable[[int], Any],
    rate: float,
    count: int,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> OpenLoopResult:
    """Send ``count`` requests at ``rate`` per second on one connection.

    ``send(i)`` performs request ``i`` and returns its outcome.  When the
    generator falls behind (a reply arrives after the next request was
    due), the next request goes out immediately and its latency still
    counts from its due time.
    """
    result = OpenLoopResult()
    start = clock()
    for index in range(count):
        due = start + index / rate
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        outcome = send(index)
        done = clock()
        result.latencies.append(done - due)
        result.lateness.append(now - due)
        result.service.append(done - now)
        result.outcomes.append(outcome)
    return result


@dataclass
class ClosedLoopResult:
    """Outcome of one closed-loop phase."""

    completed: int
    elapsed: float
    latencies: list[float]

    @property
    def throughput(self) -> float:
        """Completed requests per second."""
        return self.completed / self.elapsed


def closed_loop(
    make_sender: Callable[[int], Callable[[int], Any]],
    clients: int,
    duration: float,
    clock: Callable[[], float] = time.perf_counter,
) -> ClosedLoopResult:
    """Run ``clients`` back-to-back senders (one thread each) for ``duration`` s.

    ``make_sender(client)`` returns that client's ``send(i)``.  Each client
    stops issuing new requests once ``duration`` has elapsed; the phase ends
    when every in-flight request has returned.
    """
    lock = threading.Lock()
    latencies: list[float] = []
    errors: list[BaseException] = []
    start = clock()
    deadline = start + duration

    def client_loop(client: int) -> None:
        try:
            send = make_sender(client)
            index = 0
            while clock() < deadline:
                begin = clock()
                send(index)
                elapsed = clock() - begin
                with lock:
                    latencies.append(elapsed)
                index += 1
        except BaseException as error:  # re-raised in the calling thread
            with lock:
                errors.append(error)

    threads = [
        threading.Thread(target=client_loop, args=(client,), daemon=True)
        for client in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=duration + 60.0)
        if thread.is_alive():
            raise TimeoutError("closed-loop client did not finish")
    if errors:
        raise errors[0]
    return ClosedLoopResult(completed=len(latencies), elapsed=clock() - start, latencies=latencies)


class HttpClient:
    """One keep-alive HTTP/1.1 connection returning ``(status, body)``.

    Before each request the socket is put in delayed-ACK mode, the mode
    Linux switches an interactive keep-alive connection into on its own.
    Left to the kernel, the mode flips between quick and delayed ACKs from
    one connection to the next, and with it whether a response written in
    two segments waits on the peer's delayed ACK (~40 ms): the latency of
    the same server would then differ run to run by an order of magnitude.
    """

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if self.connection.sock is None:
            self.connection.connect()
        self.connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 0)
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.connection.close()
