"""Input-queued virtual-channel router model.

Each router has one input port per incoming channel plus one injection port,
and one output port per outgoing channel plus one ejection port.  Every input
port has ``num_vcs`` virtual channels, each with a private flit buffer of
``buffer_depth_flits`` entries, protected by credit-based flow control.

Per cycle the router performs (in this order):

1. *route computation + VC allocation* — head flits at the front of an input
   VC that do not yet hold an output VC compute their output port (minimal
   table, or escape table if the packet is on the escape layer) and try to
   acquire a free output VC: first any free adaptive VC (1..V-1) of the
   minimal-route output, otherwise the escape VC 0 of the escape-route output
   (switching the packet to the escape layer permanently);
2. *switch allocation + traversal* — for every output port one input VC with a
   ready flit, a held output VC and a downstream credit is selected
   round-robin (at most one flit leaves per input port per cycle) and its flit
   is forwarded onto the channel; tail flits release the output VC.

The router pipeline latency is modelled by making every arriving flit eligible
for forwarding only ``router_pipeline_cycles`` after its arrival.

Hot-path structure
------------------
:meth:`Router.step` fuses both phases into a single pass over a pre-flattened
``(input port, VC)`` list: each ready front flit is allocated (if it is an
unallocated head) and immediately *bucketed* under its output port; switch
allocation then draws each port's round-robin winner from its bucket.  This
is behaviour-identical to the textbook two-phase formulation (allocation
never depends on other VCs' switch decisions within a cycle, and credits and
buffers only change for switch winners, which the one-flit-per-input-port
rule excludes from later ports anyway) but visits every VC once per cycle
instead of once per output port.  Routing lookups use the network's
:meth:`~repro.simulator.network.Network.compiled_routes` channel-id arrays,
and the scheduler only calls ``step`` on routers that hold buffered flits
(see :class:`~repro.simulator.simulation.Simulator`), which ``Router`` tracks
in :attr:`buffered_count`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.simulator.flit import Flit
from repro.simulator.network import Network

#: Pseudo input-port key of the local injection port.
INJECT_PORT = -1
#: Pseudo output-port key of the local ejection port.
EJECT_PORT = -2


class InputVC:
    """State of one virtual channel of one input port."""

    __slots__ = ("buffer", "out_channel", "out_vc")

    def __init__(self) -> None:
        #: FIFO of ``(flit, ready_cycle)`` tuples.
        self.buffer: deque[tuple[Flit, int]] = deque()
        #: Output channel currently allocated to the packet in this VC.
        self.out_channel: int | None = None
        #: Output VC currently allocated to the packet in this VC.
        self.out_vc: int | None = None

    @property
    def busy(self) -> bool:
        """``True`` if the VC holds flits or an allocation."""
        return bool(self.buffer) or self.out_channel is not None


class Router:
    """One input-queued VC router.

    The router communicates with the rest of the simulator through callbacks:
    ``send_flit(channel_id, vc, flit)`` schedules a flit on a channel,
    ``send_credit(channel_id, vc)`` returns a credit upstream and
    ``eject(flit, cycle)`` delivers a flit to the local endpoint.
    """

    def __init__(self, node: int, network: Network) -> None:
        self.node = node
        self.network = network
        self.config = network.config
        num_vcs = self.config.num_vcs

        #: input ports: incoming channel ids plus the injection port.
        self.input_keys: list[int] = list(network.inputs[node]) + [INJECT_PORT]
        self.inputs: dict[int, list[InputVC]] = {
            key: [InputVC() for _ in range(num_vcs)] for key in self.input_keys
        }
        #: output ports: outgoing channel ids (ejection handled separately).
        self.output_channels: list[int] = sorted(network.outputs[node].values())
        self.out_alloc: dict[int, list[tuple[int, int] | None]] = {
            ch: [None] * num_vcs for ch in self.output_channels
        }
        self.credits: dict[int, list[int]] = {
            ch: [self.config.buffer_depth_flits] * num_vcs for ch in self.output_channels
        }
        #: round-robin pointers for switch allocation, per output port.
        self._rr_pointer: dict[int, int] = {ch: 0 for ch in self.output_channels + [EJECT_PORT]}
        #: Number of flits currently buffered across all input VCs; the
        #: simulator's active-set scheduler skips routers at zero.
        self.buffered_count = 0

        # Hot-path precomputation: the (port, VC) scan order of the two-phase
        # reference implementation, flattened into one list, and the routing
        # tables collapsed into destination -> outgoing-channel-id arrays.
        self._vc_states: list[tuple[int, int, InputVC]] = [
            (key, vc_index, state)
            for key in self.input_keys
            for vc_index, state in enumerate(self.inputs[key])
        ]
        self._switch_ports: list[int] = self.output_channels + [EJECT_PORT]
        minimal, escape = network.compiled_routes()
        self._minimal_channel: list[int] = minimal[node]
        self._escape_channel: list[int] = escape[node]

    # ------------------------------------------------------------ receiving
    def receive_flit(self, channel_id: int, vc: int, flit: Flit, cycle: int) -> None:
        """Accept a flit arriving on an input channel (or the injection port)."""
        ready = cycle + self.config.router_pipeline_cycles
        self.inputs[channel_id][vc].buffer.append((flit, ready))
        self.buffered_count += 1

    def receive_credit(self, channel_id: int, vc: int) -> None:
        """Accept a credit returned by the downstream router."""
        self.credits[channel_id][vc] += 1

    def injection_space(self, vc: int) -> bool:
        """``True`` if the injection port VC has a free buffer slot."""
        return len(self.inputs[INJECT_PORT][vc].buffer) < self.config.buffer_depth_flits

    def free_injection_vc(self) -> int | None:
        """Return an idle injection VC (no buffered flits, no allocation), if any."""
        for vc, state in enumerate(self.inputs[INJECT_PORT]):
            if not state.busy:
                return vc
        return None

    # ------------------------------------------------------------- stepping
    def step(
        self,
        cycle: int,
        send_flit: Callable[[int, int, Flit], None],
        send_credit: Callable[[int, int], None],
        eject: Callable[[Flit, int], None],
    ) -> int:
        """Run one cycle of the router.  Returns the number of flits forwarded."""
        config = self.config
        node = self.node
        out_alloc = self.out_alloc
        credits = self.credits
        adaptive_vcs = config.adaptive_vcs
        escape_vc = config.escape_vc
        has_adaptive_layer = config.num_vcs > 1
        minimal_channel = self._minimal_channel
        escape_channel = self._escape_channel

        # Phase 1 — VC allocation + switch candidacy, one pass over all VCs.
        # Buckets list each output port's candidates in (input port, VC)
        # order, exactly the order the reference per-port scan visits them.
        buckets: dict[int, list[tuple[int, int, InputVC]]] = {}
        for key, vc_index, state in self._vc_states:
            buffer = state.buffer
            if not buffer:
                continue
            flit, ready = buffer[0]
            if ready > cycle:
                continue
            out_channel = state.out_channel
            if out_channel is None:
                if not flit.is_head:
                    # Packets never interleave within an input VC (the
                    # upstream output VC is held until the tail), so a body
                    # flit at the front always inherits the head's
                    # allocation; nothing to do.
                    continue
                destination = flit.destination
                if destination == node:
                    state.out_channel = out_channel = EJECT_PORT
                    state.out_vc = 0
                else:
                    if not flit.escape and has_adaptive_layer:
                        channel = minimal_channel[destination]
                        alloc = out_alloc[channel]
                        for vc in adaptive_vcs:
                            if alloc[vc] is None:
                                alloc[vc] = (key, vc_index)
                                state.out_channel = out_channel = channel
                                state.out_vc = vc
                                break
                    if out_channel is None:
                        channel = escape_channel[destination]
                        alloc = out_alloc[channel]
                        if alloc[escape_vc] is None:
                            alloc[escape_vc] = (key, vc_index)
                            state.out_channel = out_channel = channel
                            state.out_vc = escape_vc
                            flit.escape = True
                            flit.packet.used_escape = True
                        else:
                            continue  # no output VC free this cycle
            if out_channel != EJECT_PORT and credits[out_channel][state.out_vc] <= 0:
                continue  # no downstream buffer space
            bucket = buckets.get(out_channel)
            if bucket is None:
                buckets[out_channel] = [(key, vc_index, state)]
            else:
                bucket.append((key, vc_index, state))

        if not buckets:
            return 0

        # Phase 2 — switch allocation + traversal: per output port, pick the
        # round-robin winner among candidates whose input port has not yet
        # forwarded a flit this cycle.
        rr_pointer = self._rr_pointer
        used_inputs: set[int] = set()
        forwarded = 0
        for out_port in self._switch_ports:
            bucket = buckets.get(out_port)
            if not bucket:
                continue
            if used_inputs:
                candidates = [entry for entry in bucket if entry[0] not in used_inputs]
                if not candidates:
                    continue
            else:
                candidates = bucket
            pointer = rr_pointer[out_port]
            winner = candidates[pointer % len(candidates)]
            rr_pointer[out_port] = pointer + 1
            key, vc_index, state = winner
            used_inputs.add(key)
            flit, _ = state.buffer.popleft()
            self.buffered_count -= 1
            forwarded += 1

            # Return a credit to the upstream router for the freed buffer slot.
            if key != INJECT_PORT:
                send_credit(key, vc_index)

            if out_port == EJECT_PORT:
                eject(flit, cycle)
                if flit.is_tail:
                    state.out_channel = None
                    state.out_vc = None
                continue

            out_vc = state.out_vc
            assert out_vc is not None
            credits[out_port][out_vc] -= 1
            flit.vc = out_vc
            flit.hops += 1
            send_flit(out_port, out_vc, flit)
            if flit.is_tail:
                out_alloc[out_port][out_vc] = None
                state.out_channel = None
                state.out_vc = None
        return forwarded
