"""The ``vec`` engine: a vectorized, batch-capable numpy kernel.

Same cycle-level semantics as the ``reference`` and ``soa`` engines — same
VC-allocation scan order, same round-robin switch arbitration, same
event-wheel timing, same statistics accumulation — but each router pass is
executed as **masked array operations over every router of every batch lane
at once** instead of per-VC Python loops.  A leading batch axis lets one
kernel step many independent simulations of the same compiled network (one
per ``(seed, load point)``), which is the shape of saturation sweeps and
successive-halving rungs; see :func:`repro.simulator.sweep.run_plans`.

Why vectorization preserves bit-identity
----------------------------------------
The sequential kernel's cycle is: deliver events, create packets, inject
flits, then step routers in ascending node order (phase 1: VC allocation and
switch candidacy per occupied input VC in ascending id order; phase 2:
round-robin switch arbitration per output port in ascending port order,
ejection last).  Within one cycle the routers are *independent*: a router
only reads and writes the allocation/credit/round-robin state of its own
output channels, and every cross-router effect (flit arrival, credit return)
is scheduled at least one cycle ahead through the event wheel.  The node
loop can therefore run as one data-parallel pass, provided the three
*intra-router* sequential dependencies are reproduced exactly:

1. **Adaptive VC allocation order** — earlier input VCs of a router consume
   free adaptive VCs (1..V-1) of an output channel before later ones.  The
   vectorized pass groups requesters by output channel (a channel belongs to
   exactly one source router), ranks them in ascending input-VC order with a
   stable argsort, and hands the *r*-th requester the *r*-th free VC.
2. **Escape VC allocation order** — only the lowest-id requester of a
   channel's escape VC 0 can take it.  Rank 0 of each escape group wins iff
   VC 0 is free; the adaptive and escape pools are disjoint (VCs 1..V-1 vs
   VC 0), so the two vectorized steps compose exactly like the interleaved
   sequential scan.
3. **Switch arbitration order** — ports arbitrate in ascending id order
   (ejection last) and an input port that forwarded a flit is excluded from
   later ports of the same router.  When no input port is contested across
   two output ports (the common case), the exclusion can never trigger and
   every port's round-robin winner is computed in one grouped pass.
   Otherwise the pass runs *rounds*: each round arbitrates every router's
   lowest-id remaining port simultaneously (round-robin pointer advanced
   exactly when the sequential kernel would), then filters out candidates
   whose input port was just used.  The used-set only grows during a
   router's port scan, so filtering between rounds is equivalent to the
   sequential at-processing-time filter; a port whose candidates were all
   filtered disappears without advancing its pointer, matching the
   sequential ``continue``.

The input-VC id space is renumbered **node-major** (each router's incoming
channels in ascending channel-id order, then its injection port, VCs 0..V-1
per port) so that one global ``nonzero`` over the occupancy mask yields
every router's occupied VCs already in the sequential scan order.  Bases are
V-aligned, so ``ivc % V`` still recovers the VC index for credit returns.

Statistics stay bit-identical because each lane's accumulator lists are
extended in ascending ``(lane, node)`` delivery order — a router ejects at
most one flit per cycle, so this equals the sequential per-cycle ejection
order, which the latency lists observe through the float summation in
``finalize()`` — and every other accumulator field is a commutative counter.

Batch lanes are fully independent simulations: lane state carries a leading
batch axis, per-lane traffic generators and accumulators live on per-lane
:class:`~repro.simulator.engine.base.Engine` objects, and a finished lane is
frozen (masked out of injection, routing and accounting) while the others
run on.  Wheel events that land in a frozen lane only touch its dead buffer
state, never its statistics.

Lane recycling and local cycles
-------------------------------
A finished lane is *retired* rather than merely frozen: its statistics are
finalized immediately, every pending wheel event targeting it is purged, and
its slot's state is scrubbed back to pristine so a fresh engine can be
re-armed into the slot mid-run (:meth:`_VecKernel.run` takes a ``pending``
queue and an ``on_finish`` hook).  That keeps the batch axis full instead of
waiting on the slowest lane — the mechanism behind the gang scheduler in
:mod:`repro.experiments.scheduler`.  To make a lane's observable timeline
independent of *when* its slot was armed, each lane carries a cycle offset:
packet creation/injection stamps and all latency arithmetic use the lane's
**local** cycle (``kernel cycle - offset``), while buffers and event wheels
keep kernel-absolute timestamps.  A lane armed at kernel cycle ``c`` is
therefore bit-identical to the same engine run in a fresh kernel.

Quiescent fast-forward
----------------------
The kernel tracks three idle counters (queued packets, packets mid-
injection, buffered flits).  When all are zero, the event wheels are empty,
and no running lane draws Bernoulli randomness every cycle (only trace lanes
and rate-0 lanes qualify — a ``p > 0`` injector consumes RNG each cycle, so
skipping would change the draw sequence), the cycle counter jumps straight
to the next event: the earliest wheel entry, the next trace record's
creation cycle, or a lane's phase boundary.  This mirrors the ``soa``
engine's quiescent-router parking at whole-kernel granularity and removes
the dead cycles that dominated long drains and sparse trace replays.

Single-point runs use the same kernel with a batch of one.  Bit-identity
with the reference engine — batched and single — is enforced by the goldens
in ``tests/unit/test_simulation_golden.py`` and the randomized differential
tests in ``tests/unit/test_engine_equivalence.py``; per-cycle numpy call
overhead and measured speedups are discussed in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import numpy as np

from repro.simulator.engine.base import Engine
from repro.simulator.statistics import SimulationStats

#: ``ivc_out_ch`` sentinel: the input VC holds no output allocation.
_UNROUTED = -2
#: ``ivc_out_ch`` sentinel: the input VC is allocated to the local ejection port.
_EJECT = -1
#: ``_front_ready`` sentinel: the input VC is empty (or its lane is frozen).
#: ``_front_ready`` is int32 — the compare against the current cycle scans the
#: whole array every cycle, and cycle counts stay far below 2**31.
_NEVER = np.iinfo(np.int32).max

_I64 = np.int64


def _boundaries(sorted_keys: np.ndarray) -> np.ndarray:
    """Group-start flags of a sorted key array (``True`` at each new key)."""
    flags = np.empty(len(sorted_keys), dtype=bool)
    flags[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=flags[1:])
    return flags


class _GrowColumn:
    """Append-only ``int64`` column with amortized doubling growth.

    ``data`` is the backing array; only ``data[:size]`` is meaningful, and
    newly reserved entries are zero.  Readers gather with flit/packet-id
    index arrays directly on ``data``.
    """

    __slots__ = ("data", "size")

    def __init__(self, capacity: int = 1024) -> None:
        self.data = np.zeros(capacity, dtype=_I64)
        self.size = 0

    def reserve(self, count: int) -> int:
        """Grow to hold ``count`` more entries; return the first new index."""
        start = self.size
        needed = start + count
        if needed > len(self.data):
            capacity = len(self.data)
            while capacity < needed:
                capacity *= 2
            grown = np.zeros(capacity, dtype=_I64)
            grown[:start] = self.data[:start]
            self.data = grown
        self.size = needed
        return start


class _CompiledNetwork:
    """Static per-network index tables shared by every lane of a kernel."""

    def __init__(self, network) -> None:
        config = network.config
        self.num_nodes = num_nodes = network.num_nodes
        self.num_channels = num_channels = len(network.channels)
        self.num_vcs = num_vcs = config.num_vcs
        self.depth = config.buffer_depth_flits
        self.pipeline = config.router_pipeline_cycles

        self.chan_latency = np.array(
            [channel.latency_cycles for channel in network.channels], dtype=_I64
        )
        #: Every channel has the same latency: event scheduling needs no
        #: per-event latency gather or grouping (the overwhelmingly common
        #: case — the physical model's default is single-cycle links).
        self.uniform_latency = bool(
            (self.chan_latency == self.chan_latency[0]).all()
        ) if num_channels else True
        minimal, escape = network.compiled_routes()
        self.minimal = np.ascontiguousarray(np.array(minimal, dtype=_I64).reshape(-1))
        self.escape = np.ascontiguousarray(np.array(escape, dtype=_I64).reshape(-1))

        # Node-major input-VC numbering: per node, incoming channels in
        # ascending channel-id order, then the injection port; V VCs per
        # port.  ``network.inputs[node]`` ascends by construction (channels
        # are numbered in link order), which is exactly the reference scan
        # order — asserted here because the renumbering depends on it.
        num_ivcs = (num_channels + num_nodes) * num_vcs
        self.num_ivcs = num_ivcs
        self.ivc_node = np.empty(num_ivcs, dtype=_I64)
        self.ivc_chan = np.empty(num_ivcs, dtype=_I64)
        self.ivc_inport = np.empty(num_ivcs, dtype=_I64)
        self.chan_ivc_base = np.empty(num_channels, dtype=_I64)
        self.inj_ivc_base = np.empty(num_nodes, dtype=_I64)
        position = 0
        inport = 0
        for node in range(num_nodes):
            incoming = network.inputs[node]
            assert list(incoming) == sorted(incoming)
            for channel in incoming:
                self.chan_ivc_base[channel] = position
                self.ivc_node[position : position + num_vcs] = node
                self.ivc_chan[position : position + num_vcs] = channel
                self.ivc_inport[position : position + num_vcs] = inport
                position += num_vcs
                inport += 1
            self.inj_ivc_base[node] = position
            self.ivc_node[position : position + num_vcs] = node
            self.ivc_chan[position : position + num_vcs] = -1
            self.ivc_inport[position : position + num_vcs] = inport
            position += num_vcs
            inport += 1
        assert position == num_ivcs
        self.num_inports = inport

        #: Round-robin/port-key space: channels ``[0, C)``, then one
        #: ejection pseudo-port per node at ``C + node`` (sorts after every
        #: channel, so ejection arbitrates last — as in the reference scan).
        self.num_ports = num_channels + num_nodes
        self.wheel_size = network.max_latency_cycles + 1


class _VecKernel:
    """One batched run: shared compiled network, per-lane state and wheels.

    All per-``(lane, input VC)`` state lives in flat arrays indexed by the
    global id ``gi = lane * num_ivcs + ivc``; the ``g_*`` tables precompute
    every per-``gi`` index expression the router pass needs (lane offsets
    into the credit/allocation/round-robin spaces), turning hot-path
    arithmetic chains into single gathers.
    """

    def __init__(self, network, lanes: "list[Engine]") -> None:
        if not lanes:
            raise ValueError("a batched run needs at least one lane")
        for lane in lanes:
            if lane.network is not network:
                raise ValueError("every batch lane must share the compiled network")
        self._lanes = lanes
        self._net = net = _CompiledNetwork(network)

        num_lanes = len(lanes)
        self._num_lanes = num_lanes
        num_ivcs = net.num_ivcs
        num_nodes = net.num_nodes
        depth = net.depth
        cv = net.num_channels * net.num_vcs

        # Per-(lane, ivc) hot state, flattened behind the leading batch axis.
        self._buf_fid = np.zeros(num_lanes * num_ivcs * depth, dtype=_I64)
        self._buf_ready = np.zeros(num_lanes * num_ivcs * depth, dtype=_I64)
        self._buf_head = np.zeros(num_lanes * num_ivcs, dtype=_I64)
        self._buf_len = np.zeros(num_lanes * num_ivcs, dtype=_I64)
        self._ivc_out_ch = np.full(num_lanes * num_ivcs, _UNROUTED, dtype=_I64)
        self._ivc_out_vc = np.zeros(num_lanes * num_ivcs, dtype=_I64)
        self._out_alloc = np.full(num_lanes * cv, -1, dtype=_I64)
        self._credits = np.full(num_lanes * cv, depth, dtype=_I64)
        #: Per-(lane, channel) allocation headroom, kept in lockstep with
        #: ``_out_alloc``: free adaptive-VC count and escape-VC-0 openness.
        #: Lets phase 1 drop requesters of fully-allocated channels before
        #: any grouping work.
        self._adaptive_free = np.full(
            num_lanes * net.num_channels, net.num_vcs - 1, dtype=_I64
        )
        self._escape_free = np.ones(num_lanes * net.num_channels, dtype=bool)
        if net.num_vcs > 1:
            if net.num_vcs > 17:
                raise ValueError("vec engine supports at most 17 virtual channels")
            adaptive = net.num_vcs - 1
            self._pow2 = (1 << np.arange(adaptive, dtype=_I64)).astype(_I64)
            #: ``_nth_set_bit[mask, r]`` = index of the r-th set bit of
            #: ``mask`` — the r-th free adaptive VC of a channel whose free
            #: set encodes to ``mask`` (junk where r >= popcount).
            table = np.zeros((1 << adaptive, adaptive), dtype=_I64)
            for mask in range(1 << adaptive):
                set_bits = [b for b in range(adaptive) if mask >> b & 1]
                table[mask, : len(set_bits)] = set_bits
            self._nth_set_bit = table
        self._rr = np.zeros(num_lanes * net.num_ports, dtype=_I64)
        #: Scratch for the round-based arbitration path (reset after use).
        self._used_inports = np.zeros(num_lanes * net.num_inports, dtype=bool)
        #: Front-of-buffer cache: the flit id at each input VC's head and
        #: the cycle it leaves the router pipeline (``_NEVER`` when the VC
        #: is empty).  Maintained at push/pop time so the router pass opens
        #: with one vector compare instead of an occupancy scan + gathers.
        self._front_fid = np.zeros(num_lanes * num_ivcs, dtype=_I64)
        self._front_ready = np.full(num_lanes * num_ivcs, _NEVER, dtype=np.int32)
        #: Occupancy gate: ``False`` over a finished lane's ivc range, so
        #: late wheel arrivals into a frozen lane never refresh its front
        #: cache and re-enter the router pass (its statistics are final).
        self._gate = np.ones(num_lanes * num_ivcs, dtype=bool)
        self._all_running = True

        # Precomputed per-gi index tables.
        lane_index = np.repeat(np.arange(num_lanes, dtype=_I64), num_ivcs)
        node = np.tile(net.ivc_node, num_lanes)
        self._g_node = node
        self._g_chan = np.tile(net.ivc_chan, num_lanes)
        self._g_lane = lane_index
        self._g_lane_cv = lane_index * cv
        self._g_lane_c = lane_index * net.num_channels
        self._g_lane_ports = lane_index * net.num_ports
        self._g_eject_pk = self._g_lane_ports + net.num_channels + node
        self._g_eject_port = net.num_channels + node
        self._g_node_key = lane_index * num_nodes + node
        self._g_ck_base = (lane_index * num_nodes + node) * net.num_ports
        self._g_inport_key = lane_index * net.num_inports + np.tile(
            net.ivc_inport, num_lanes
        )
        # Credit index of the upstream (channel, vc) slot a departing flit
        # frees; junk (unused) for injection-port ivcs.
        vc = np.tile(np.arange(num_ivcs, dtype=_I64) % net.num_vcs, num_lanes)
        self._g_credit_idx = self._g_lane_cv + np.where(
            self._g_chan >= 0, self._g_chan * net.num_vcs, 0
        ) + vc

        # Per-(lane, node) injection state, flat behind the batch axis.
        self._inj_queue: list[list[list[int]]] = [
            [[] for _ in range(num_nodes)] for _ in range(num_lanes)
        ]
        self._queue_len = np.zeros(num_lanes * num_nodes, dtype=_I64)
        self._inj_cur = np.full(num_lanes * num_nodes, -1, dtype=_I64)
        self._inj_end = np.zeros(num_lanes * num_nodes, dtype=_I64)
        self._inj_vc = np.full(num_lanes * num_nodes, -1, dtype=_I64)
        self._node_gate = np.ones(num_lanes * num_nodes, dtype=bool)
        n_lane = np.repeat(np.arange(num_lanes, dtype=_I64), num_nodes)
        n_node = np.tile(np.arange(num_nodes, dtype=_I64), num_lanes)
        self._g_n_lane = n_lane
        self._g_n_node = n_node
        self._g_n_inj_gi = n_lane * num_ivcs + net.inj_ivc_base[n_node]

        # Global (cross-lane) packet/flit metadata columns.  Id values are
        # interleaved across lanes; nothing observable depends on them.
        self._pkt_dst = _GrowColumn()
        self._pkt_size = _GrowColumn()
        self._pkt_created = _GrowColumn()
        self._pkt_injected = _GrowColumn()
        self._pkt_measured = _GrowColumn()
        self._pkt_escape = _GrowColumn()
        self._flit_pkt = _GrowColumn()
        self._flit_dest = _GrowColumn()
        self._flit_head = _GrowColumn()
        self._flit_tail = _GrowColumn()
        self._flit_escape = _GrowColumn()
        self._flit_hops = _GrowColumn()

        # Event wheels: each slot holds arrays to be concatenated and
        # scattered when the slot's cycle arrives.
        self._flit_wheel: list[list[tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in range(net.wheel_size)
        ]
        self._credit_wheel: list[list[np.ndarray]] = [
            [] for _ in range(net.wheel_size)
        ]

        self._network = network
        self._bounds = [lane._phase_bounds() for lane in lanes]
        self._trace_mode = [lane.trace_mode for lane in lanes]
        #: Kernel cycle where each lane's local cycle 0 begins (0 for the
        #: initial lanes; the arming cycle for recycled slots).  The numpy
        #: copy serves the vectorized gathers in injection/ejection, the
        #: list the scalar per-lane loops.
        self._offsets = np.zeros(num_lanes, dtype=_I64)
        self._offset_list = [0] * num_lanes
        #: Idle counters: queued-but-unsegmented packets, packets mid-
        #: injection, and flits sitting in input buffers.  All zero (plus
        #: empty wheels) means the kernel is quiescent; they also gate the
        #: injection and router passes, which are provably no-ops then.
        self._queued_total = 0
        self._inflight_injections = 0
        self._buffered_total = 0
        #: Running lanes whose injector draws randomness every cycle
        #: (Bernoulli with p > 0).  Any such lane forbids fast-forwarding.
        self._num_unjumpable_running = sum(
            1 for lane in lanes if self._lane_unjumpable(lane)
        )

    @staticmethod
    def _lane_unjumpable(lane: "Engine") -> bool:
        return (
            lane.injection is not None
            and lane.injection._packet_probability > 0.0
        )

    # ------------------------------------------------------------- creation
    def _create_packets(self, cycle: int, in_measurement: list[bool], running) -> None:
        num_nodes = self._net.num_nodes
        offsets = self._offset_list
        for lane_index, lane in enumerate(self._lanes):
            if not running[lane_index]:
                continue
            local = cycle - offsets[lane_index]
            trace_mode = self._trace_mode[lane_index]
            if trace_mode:
                records = lane._trace_injector.packets_for_cycle(local)
                measured = True
            else:
                records = lane.injection.packets_for_cycle(local)
                measured = in_measurement[lane_index]
            if not records:
                continue
            count = len(records)
            base = self._pkt_dst.reserve(count)
            self._pkt_size.reserve(count)
            self._pkt_created.reserve(count)
            self._pkt_injected.reserve(count)
            self._pkt_measured.reserve(count)
            self._pkt_escape.reserve(count)
            end = base + count
            columns = np.array(records, dtype=_I64)
            self._pkt_dst.data[base:end] = columns[:, 1]
            if trace_mode:
                self._pkt_size.data[base:end] = columns[:, 2]
            else:
                self._pkt_size.data[base:end] = lane.config.packet_size_flits
            self._pkt_created.data[base:end] = local
            self._pkt_injected.data[base:end] = -1
            self._pkt_measured.data[base:end] = 1 if measured else 0
            # pkt_escape: reserved entries are already zero.
            lane._packet_counter += count
            lane._accumulator.packets_created += count
            if measured:
                lane._packets_measured += count
                lane._measured_in_flight += count
            queues = self._inj_queue[lane_index]
            for position, record in enumerate(records):
                queues[record[0]].append(base + position)
            np.add.at(self._queue_len, lane_index * num_nodes + columns[:, 0], 1)
            self._queued_total += count

    def _segment_packets(self, packet_ids: np.ndarray) -> np.ndarray:
        """Append flit columns for ``packet_ids`` (in order); return first-flit ids."""
        sizes = self._pkt_size.data[packet_ids]
        total = int(sizes.sum())
        first = self._flit_pkt.reserve(total)
        self._flit_dest.reserve(total)
        self._flit_head.reserve(total)
        self._flit_tail.reserve(total)
        self._flit_escape.reserve(total)
        self._flit_hops.reserve(total)
        end = first + total
        starts = first + np.concatenate(([0], np.cumsum(sizes)[:-1]))
        self._flit_pkt.data[first:end] = np.repeat(packet_ids, sizes)
        self._flit_dest.data[first:end] = np.repeat(
            self._pkt_dst.data[packet_ids], sizes
        )
        # head/tail/escape/hops: reserved entries are already zero.
        self._flit_head.data[starts] = 1
        self._flit_tail.data[starts + sizes - 1] = 1
        return starts

    # ------------------------------------------------------------ injection
    def _inject_flits(self, cycle: int) -> None:
        net = self._net
        num_vcs = net.num_vcs
        buf_len = self._buf_len
        inj_cur = self._inj_cur
        inj_vc = self._inj_vc
        node_gate = self._node_gate

        # Start path: nodes with no packet in flight and a queued packet
        # look for an idle injection VC (no buffered flits, no allocation).
        # ``nonzero`` ascends in (lane, node) — the sequential segmentation
        # order, which fixes the global flit-id assignment.
        queued = (inj_cur < 0) & (self._queue_len > 0)
        if not self._all_running:
            queued &= node_gate
        if queued.any():
            flat = np.flatnonzero(queued)
            candidate_gi = self._g_n_inj_gi[flat, None] + np.arange(num_vcs)
            idle = (buf_len[candidate_gi] == 0) & (
                self._ivc_out_ch[candidate_gi] == _UNROUTED
            )
            has_idle = idle.any(axis=1)
            if has_idle.any():
                starters = flat[has_idle]
                start_vc = idle.argmax(axis=1)[has_idle]
                lanes = self._g_n_lane[starters]
                nodes = self._g_n_node[starters]
                packet_ids = np.empty(len(starters), dtype=_I64)
                for position in range(len(starters)):
                    packet_ids[position] = self._inj_queue[lanes[position]][
                        nodes[position]
                    ].pop(0)
                self._queue_len[starters] -= 1
                self._queued_total -= len(starters)
                self._inflight_injections += len(starters)
                firsts = self._segment_packets(packet_ids)
                inj_cur[starters] = firsts
                self._inj_end[starters] = firsts + self._pkt_size.data[packet_ids]
                inj_vc[starters] = start_vc

        # Continue path: every node with a packet in flight pushes its next
        # flit into the chosen injection VC if there is buffer space — at
        # most one flit per node per cycle.
        active = inj_cur >= 0
        if not self._all_running:
            active &= node_gate
        if not active.any():
            return
        flat = np.flatnonzero(active)
        gi = self._g_n_inj_gi[flat] + inj_vc[flat]
        length = buf_len[gi]
        has_space = length < net.depth
        if not has_space.any():
            return
        flat = flat[has_space]
        gi = gi[has_space]
        length = length[has_space]
        fid = inj_cur[flat]
        heads = self._flit_head.data[fid] == 1
        if heads.any():
            # Injection stamps are lane-local cycles (latency arithmetic in
            # ``_eject`` is local too, so recycled lanes stay bit-identical).
            self._pkt_injected.data[self._flit_pkt.data[fid[heads]]] = (
                cycle - self._offsets[self._g_n_lane[flat[heads]]]
            )
        slot = gi * net.depth + (self._buf_head[gi] + length) % net.depth
        ready_at = cycle + net.pipeline
        self._buf_fid[slot] = fid
        self._buf_ready[slot] = ready_at
        buf_len[gi] = length + 1
        self._buffered_total += len(gi)
        was_empty = length == 0
        if was_empty.any():
            empty_gi = gi[was_empty]
            self._front_fid[empty_gi] = fid[was_empty]
            self._front_ready[empty_gi] = ready_at
        nxt = fid + 1
        done = nxt >= self._inj_end[flat]
        inj_cur[flat] = np.where(done, -1, nxt)
        done_count = int(done.sum())
        if done_count:
            inj_vc[flat[done]] = -1
            self._inflight_injections -= done_count

    # ------------------------------------------------------- event delivery
    def _deliver_events(self, cycle: int) -> None:
        net = self._net
        slot = cycle % net.wheel_size
        flit_events = self._flit_wheel[slot]
        if flit_events:
            self._flit_wheel[slot] = []
            if len(flit_events) == 1:
                gi, fid = flit_events[0]
            else:
                gi = np.concatenate([event[0] for event in flit_events])
                fid = np.concatenate([event[1] for event in flit_events])
            # Each (lane, ivc) receives at most one flit per cycle (one
            # winner per channel per cycle, constant channel latency), so
            # plain fancy-index scatters are exact.
            length = self._buf_len[gi]
            index = gi * net.depth + (self._buf_head[gi] + length) % net.depth
            ready_at = cycle + net.pipeline
            self._buf_fid[index] = fid
            self._buf_ready[index] = ready_at
            self._buf_len[gi] = length + 1
            self._buffered_total += len(gi)
            was_empty = length == 0
            if not self._all_running:
                was_empty &= self._gate[gi]
            if was_empty.any():
                empty_gi = gi[was_empty]
                self._front_fid[empty_gi] = fid[was_empty]
                self._front_ready[empty_gi] = ready_at
        credit_events = self._credit_wheel[slot]
        if credit_events:
            self._credit_wheel[slot] = []
            if len(credit_events) == 1:
                index = credit_events[0]
            else:
                index = np.concatenate(credit_events)
            self._credits[index] += 1  # distinct (lane, channel, vc) per cycle

    def _grouped_rr(self, order: np.ndarray, sorted_port: np.ndarray) -> np.ndarray:
        """Round-robin winner per port group; advances the pointers.

        ``order`` indexes the candidates sorted by ``sorted_port`` (stable,
        so same-port candidates stay in ascending input-VC order).
        """
        port_first = _boundaries(sorted_port)
        offsets = np.flatnonzero(port_first)
        counts = np.diff(np.append(offsets, len(sorted_port)))
        unique_port = sorted_port[offsets]
        pointer = self._rr[unique_port]
        self._rr[unique_port] = pointer + 1
        return order[offsets + pointer % counts]

    # ---------------------------------------------------------- router pass
    def _route(self, cycle: int, in_measurement: list[bool]) -> None:
        net = self._net
        num_vcs = net.num_vcs
        num_channels = net.num_channels
        num_nodes = net.num_nodes
        depth = net.depth
        buf_len = self._buf_len
        ivc_out_ch = self._ivc_out_ch
        ivc_out_vc = self._ivc_out_vc

        # The front cache makes the "occupied with a pipeline-ready front
        # flit" scan a single compare; ascending gi is the sequential scan
        # order.  Frozen lanes sit at ``_NEVER`` and never appear.
        gi = np.flatnonzero(self._front_ready <= cycle)
        if gi.size == 0:
            return
        fid = self._front_fid[gi]

        out_ch = ivc_out_ch[gi]
        flit_head = self._flit_head.data
        flit_dest = self._flit_dest.data

        # ---- Phase 1a: route + VC-allocate unrouted head flits.
        unrouted = out_ch == _UNROUTED
        if unrouted.any():
            heads = unrouted & (flit_head[fid] == 1)
            if heads.any():
                h_gi = gi[heads]
                h_fid = fid[heads]
                node = self._g_node[h_gi]
                dest = flit_dest[h_fid]
                local = dest == node
                if local.any():
                    ivc_out_ch[h_gi[local]] = _EJECT
                    ivc_out_vc[h_gi[local]] = 0
                remote = ~local
                adaptive_won = np.zeros(len(h_fid), dtype=bool)
                if num_vcs > 1:
                    wants = remote & (self._flit_escape.data[h_fid] == 0)
                    if wants.any():
                        w_pos = np.flatnonzero(wants)
                        channel = net.minimal[node[w_pos] * num_nodes + dest[w_pos]]
                        key = self._g_lane_c[h_gi[w_pos]] + channel
                        # Requesters of a fully-allocated channel fail the
                        # sequential scan outright — drop them before the
                        # grouping work (at saturation that is most of them).
                        open_ch = self._adaptive_free[key] > 0
                        if open_ch.any():
                            w_pos = w_pos[open_ch]
                            channel = channel[open_ch]
                            key = key[open_ch]
                            order = np.argsort(key, kind="stable")
                            sorted_key = key[order]
                            group_first = _boundaries(sorted_key)
                            group_id = np.cumsum(group_first) - 1
                            first_pos = np.flatnonzero(group_first)
                            rank = np.arange(len(sorted_key)) - first_pos[group_id]
                            unique_key = sorted_key[group_first]
                            free_count = self._adaptive_free[unique_key]
                            got = rank < free_count[group_id]
                            # The r-th ranked requester takes the r-th free
                            # adaptive VC, exactly like the sequential
                            # first-free scan: encode each group's free set
                            # as a bitmask and look the rank up in the
                            # precomputed nth-set-bit table.
                            alloc = self._out_alloc.reshape(-1, num_vcs)
                            free_bits = (alloc[unique_key, 1:] < 0).dot(
                                self._pow2
                            )
                            vc = (
                                self._nth_set_bit[
                                    free_bits[group_id[got]], rank[got]
                                ]
                                + 1
                            )
                            winner = order[got]  # positions within w_pos
                            win_gi = h_gi[w_pos[winner]]
                            alloc[key[winner], vc] = win_gi
                            ivc_out_ch[win_gi] = channel[winner]
                            ivc_out_vc[win_gi] = vc
                            adaptive_won[w_pos[winner]] = True
                            group_sizes = np.diff(
                                np.append(first_pos, len(sorted_key))
                            )
                            self._adaptive_free[unique_key] -= np.minimum(
                                group_sizes, free_count
                            )
                # ---- Phase 1b: escape VC 0 for everything still unrouted.
                wants_escape = remote & ~adaptive_won
                if wants_escape.any():
                    e_pos = np.flatnonzero(wants_escape)
                    channel = net.escape[node[e_pos] * num_nodes + dest[e_pos]]
                    key = self._g_lane_c[h_gi[e_pos]] + channel
                    open_esc = self._escape_free[key]
                    if open_esc.any():
                        e_pos = e_pos[open_esc]
                        channel = channel[open_esc]
                        key = key[open_esc]
                        order = np.argsort(key, kind="stable")
                        group_first = _boundaries(key[order])
                        taker = order[group_first]  # lowest-ivc requester
                        take_gi = h_gi[e_pos[taker]]
                        take_fid = h_fid[e_pos[taker]]
                        self._out_alloc.reshape(-1, num_vcs)[key[taker], 0] = (
                            take_gi
                        )
                        self._escape_free[key[taker]] = False
                        ivc_out_ch[take_gi] = channel[taker]
                        ivc_out_vc[take_gi] = 0
                        self._flit_escape.data[take_fid] = 1
                        self._pkt_escape.data[self._flit_pkt.data[take_fid]] = 1
            out_ch = ivc_out_ch[gi]  # refresh allocations

        # ---- Phase 1c: switch candidacy (allocated + credit available).
        out_vc = ivc_out_vc[gi]
        routed = out_ch >= 0
        candidate = out_ch == _EJECT
        if routed.any():
            r_pos = np.flatnonzero(routed)
            credit_index = (
                self._g_lane_cv[gi[r_pos]] + out_ch[r_pos] * num_vcs + out_vc[r_pos]
            )
            candidate[r_pos] = self._credits[credit_index] > 0
        if not candidate.any():
            return

        c_gi = gi[candidate]
        c_fid = fid[candidate]
        c_out_ch = out_ch[candidate]
        c_out_vc = out_vc[candidate]
        is_routed = c_out_ch >= 0
        port = np.where(is_routed, c_out_ch, self._g_eject_port[c_gi])
        port_key = self._g_lane_ports[c_gi] + port

        # ---- Phase 2: switch arbitration (see module docstring).
        # ``c_gi`` ascends, and the input port is monotone in the ivc id, so
        # ``inport_key`` arrives already sorted: contested input ports (two
        # candidates on one inport aiming at *different* output ports) show
        # up as adjacent runs.  Routers are independent, so only the nodes
        # owning such an inport need the round-based arbitration; everyone
        # else takes the single grouped round-robin pass.
        inport_key = self._g_inport_key[c_gi]
        duplicated = inport_key[1:] == inport_key[:-1]
        contested_adjacent = duplicated & (port_key[1:] != port_key[:-1])
        winners: list[np.ndarray] = []
        if contested_adjacent.any():
            node_key = self._g_node_key[c_gi]
            contested_nodes = np.zeros(
                self._num_lanes * net.num_nodes, dtype=bool
            )
            contested_nodes[node_key[np.flatnonzero(contested_adjacent)]] = True
            in_rounds = contested_nodes[node_key]
            fast = np.flatnonzero(~in_rounds)
            rounds = np.flatnonzero(in_rounds)
            if fast.size:
                order = fast[np.argsort(port_key[fast], kind="stable")]
                winners.append(self._grouped_rr(order, port_key[order]))
        else:
            rounds = None
            order = np.argsort(port_key, kind="stable")
            winners.append(self._grouped_rr(order, port_key[order]))
        if rounds is not None and rounds.size:
            # One stable sort up front; per-round compressions of the
            # sorted arrays preserve the (lane, node, port, ivc) order, so
            # no round re-sorts.
            conflict_key = self._g_ck_base[c_gi[rounds]] + port[rounds]
            perm = np.argsort(conflict_key, kind="stable")
            node_sorted = self._g_node_key[c_gi[rounds[perm]]]
            port_sorted = port_key[rounds[perm]]
            inport_sorted = inport_key[rounds[perm]]
            original_sorted = rounds[perm]
            alive = np.ones(len(perm), dtype=bool)
            used = self._used_inports
            while True:
                live = np.flatnonzero(alive)
                if live.size == 0:
                    break
                live_node = node_sorted[live]
                live_port = port_sorted[live]
                node_first = _boundaries(live_node)
                node_id = np.cumsum(node_first) - 1
                min_port = live_port[node_first][node_id]
                this_round = live_port == min_port
                selected = live[this_round]
                round_winners = self._grouped_rr(
                    selected, live_port[this_round]
                )
                winners.append(original_sorted[round_winners])
                alive[selected] = False
                used[inport_sorted[round_winners]] = True
                remaining = np.flatnonzero(alive)
                if remaining.size:
                    blocked = used[inport_sorted[remaining]]
                    if blocked.any():
                        alive[remaining[blocked]] = False
            used[inport_sorted] = False  # reset the scratch buffer
        win = winners[0] if len(winners) == 1 else np.concatenate(winners)

        w_gi = c_gi[win]
        w_fid = c_fid[win]
        w_port = port[win]

        # Pop the forwarded front flit of every winning input VC and
        # refresh the front cache from the new head slot.
        new_head = (self._buf_head[w_gi] + 1) % depth
        self._buf_head[w_gi] = new_head
        new_length = buf_len[w_gi] - 1
        buf_len[w_gi] = new_length
        self._buffered_total -= len(w_gi)
        emptied = new_length == 0
        self._front_ready[w_gi[emptied]] = _NEVER
        refill = ~emptied
        if refill.any():
            refill_gi = w_gi[refill]
            refill_slot = refill_gi * depth + new_head[refill]
            self._front_fid[refill_gi] = self._buf_fid[refill_slot]
            self._front_ready[refill_gi] = self._buf_ready[refill_slot]

        # Return credits upstream for the freed slots.
        from_chan = self._g_chan[w_gi] >= 0
        if from_chan.any():
            chan_gi = w_gi[from_chan]
            self._schedule(
                self._credit_wheel,
                self._g_chan[chan_gi],
                cycle,
                self._g_credit_idx[chan_gi],
            )

        ejected = w_port >= num_channels
        if ejected.any():
            self._eject(
                cycle,
                in_measurement,
                w_gi[ejected],
                w_fid[ejected],
                w_port[ejected] - num_channels,
            )

        forwarded = ~ejected
        if forwarded.any():
            f_gi = w_gi[forwarded]
            f_port = w_port[forwarded]
            f_vc = c_out_vc[win[forwarded]]
            f_fid = w_fid[forwarded]
            out_index = self._g_lane_cv[f_gi] + f_port * num_vcs + f_vc
            self._credits[out_index] -= 1
            self._flit_hops.data[f_fid] += 1
            target_gi = (
                self._g_lane[f_gi] * net.num_ivcs
                + net.chan_ivc_base[f_port]
                + f_vc
            )
            self._schedule(self._flit_wheel, f_port, cycle, target_gi, f_fid)
            tails = self._flit_tail.data[f_fid] == 1
            if tails.any():
                self._out_alloc[out_index[tails]] = -1
                ivc_out_ch[f_gi[tails]] = _UNROUTED
                # Release the headroom counters (one winner per channel per
                # cycle, so the scatters never collide).
                tail_chan = self._g_lane_c[f_gi[tails]] + f_port[tails]
                tail_escape = f_vc[tails] == 0
                self._escape_free[tail_chan[tail_escape]] = True
                self._adaptive_free[tail_chan[~tail_escape]] += 1

    def _schedule(self, wheel, channel, cycle, *arrays) -> None:
        """Append event arrays to wheel slots ``chan_latency[channel]`` ahead."""
        net = self._net
        wheel_size = net.wheel_size
        if net.uniform_latency:
            slot = (cycle + int(net.chan_latency[0])) % wheel_size
            wheel[slot].append(arrays[0] if len(arrays) == 1 else tuple(arrays))
            return
        latency = net.chan_latency[channel]
        for value in np.unique(latency):
            mask = latency == value
            slot = (cycle + int(value)) % wheel_size
            picked = [array[mask] for array in arrays]
            wheel[slot].append(picked[0] if len(arrays) == 1 else tuple(picked))

    # -------------------------------------------------------------- ejection
    def _eject(self, cycle, in_measurement, gis, fids, nodes) -> None:
        lanes_arr = self._g_lane[gis]
        # Flit throughput accounting (commutative counters, order-free).
        if self._num_lanes == 1:
            if in_measurement[0]:
                self._lanes[0]._accumulator.flits_delivered_measurement += len(fids)
        else:
            per_lane = np.bincount(lanes_arr, minlength=self._num_lanes)
            for lane_index in np.flatnonzero(per_lane):
                if in_measurement[lane_index]:
                    self._lanes[
                        lane_index
                    ]._accumulator.flits_delivered_measurement += int(
                        per_lane[lane_index]
                    )

        tails = self._flit_tail.data[fids] == 1
        if not tails.any():
            return
        t_gi = gis[tails]
        t_fid = fids[tails]
        t_lane = lanes_arr[tails]
        t_node = nodes[tails]
        # A router ejects at most one flit per cycle, so ascending
        # (lane, node) is the sequential per-cycle delivery order.
        order = np.argsort(t_lane * self._net.num_nodes + t_node)
        t_fid = t_fid[order]
        t_lane = t_lane[order]
        packet_id = self._flit_pkt.data[t_fid]
        created = self._pkt_created.data[packet_id]
        # Creation/injection stamps are lane-local, so latencies must be
        # computed against each flit's lane-local delivery cycle.
        local = cycle - self._offsets[t_lane]
        total_latency = local - created
        network_latency = local - self._pkt_injected.data[packet_id]
        hops = self._flit_hops.data[t_fid]
        measured = self._pkt_measured.data[packet_id] == 1
        escaped = self._pkt_escape.data[packet_id] == 1
        sizes = self._pkt_size.data[packet_id]

        lane_first = _boundaries(t_lane) if len(t_lane) > 1 else np.ones(1, dtype=bool)
        segment_starts = np.flatnonzero(lane_first)
        segment_ends = np.append(segment_starts[1:], len(t_lane))
        for seg_start, seg_end in zip(segment_starts, segment_ends):
            lane = self._lanes[t_lane[seg_start]]
            accumulator = lane._accumulator
            seg = slice(seg_start, seg_end)
            seg_measured = measured[seg]
            measured_count = int(seg_measured.sum())
            # int(): segment bounds are numpy scalars; the accumulator's
            # counters must stay Python ints (they end up in JSON payloads).
            accumulator.packets_delivered += int(seg_end - seg_start)
            if measured_count:
                accumulator.measured_delivered += measured_count
                accumulator.measured_latencies.extend(
                    total_latency[seg][seg_measured].tolist()
                )
                accumulator.measured_network_latencies.extend(
                    network_latency[seg][seg_measured].tolist()
                )
                accumulator.measured_hops.extend(hops[seg][seg_measured].tolist())
                accumulator.measured_escapes += int(
                    (escaped[seg] & seg_measured).sum()
                )
                lane._measured_in_flight -= measured_count
            if accumulator.phase_of_cycle is not None:
                phase_of_cycle = accumulator.phase_of_cycle
                table_len = len(phase_of_cycle)
                for position in range(seg_start, seg_end):
                    creation = int(created[position])
                    index = (
                        phase_of_cycle[creation] if 0 <= creation < table_len else -1
                    )
                    if index >= 0:
                        accumulator.phase_delivered[index] += 1
                        accumulator.phase_flits[index] += int(sizes[position])
                        accumulator.phase_latencies[index].append(
                            int(total_latency[position])
                        )
                        accumulator.phase_hops[index].append(int(hops[position]))
        self._ivc_out_ch[t_gi] = _UNROUTED

    # -------------------------------------------------------- lane recycling
    def _retire_lane(self, slot: int) -> None:
        """Freeze a finished lane and scrub its slot back to pristine.

        Pending wheel events targeting the lane are purged and its stale
        contributions (an undrained lane can end with queued packets and
        buffered flits) are subtracted from the idle counters, so the
        counters stay exact for the surviving lanes and a future
        :meth:`_arm` starts from the same state as a fresh kernel.
        """
        net = self._net
        cv = net.num_channels * net.num_vcs
        ivcs = slice(slot * net.num_ivcs, (slot + 1) * net.num_ivcs)
        nodes = slice(slot * net.num_nodes, (slot + 1) * net.num_nodes)
        chans = slice(slot * net.num_channels, (slot + 1) * net.num_channels)
        self._buffered_total -= int(self._buf_len[ivcs].sum())
        self._queued_total -= int(self._queue_len[nodes].sum())
        self._inflight_injections -= int((self._inj_cur[nodes] >= 0).sum())
        self._purge_lane_events(slot)
        self._buf_head[ivcs] = 0
        self._buf_len[ivcs] = 0
        self._ivc_out_ch[ivcs] = _UNROUTED
        self._ivc_out_vc[ivcs] = 0
        self._front_fid[ivcs] = 0
        self._front_ready[ivcs] = _NEVER
        self._gate[ivcs] = False
        self._out_alloc[slot * cv : (slot + 1) * cv] = -1
        self._credits[slot * cv : (slot + 1) * cv] = net.depth
        self._adaptive_free[chans] = net.num_vcs - 1
        self._escape_free[chans] = True
        self._rr[slot * net.num_ports : (slot + 1) * net.num_ports] = 0
        self._inj_queue[slot] = [[] for _ in range(net.num_nodes)]
        self._queue_len[nodes] = 0
        self._inj_cur[nodes] = -1
        self._inj_end[nodes] = 0
        self._inj_vc[nodes] = -1
        self._node_gate[nodes] = False

    def _purge_lane_events(self, slot: int) -> None:
        """Drop every pending wheel event that targets ``slot``'s lane."""
        net = self._net
        ivc_lo = slot * net.num_ivcs
        ivc_hi = ivc_lo + net.num_ivcs
        cv = net.num_channels * net.num_vcs
        credit_lo = slot * cv
        credit_hi = credit_lo + cv
        for wheel_slot in range(net.wheel_size):
            events = self._flit_wheel[wheel_slot]
            if events:
                kept = []
                for gi, fid in events:
                    mask = (gi < ivc_lo) | (gi >= ivc_hi)
                    if mask.all():
                        kept.append((gi, fid))
                    elif mask.any():
                        kept.append((gi[mask], fid[mask]))
                self._flit_wheel[wheel_slot] = kept
            credits = self._credit_wheel[wheel_slot]
            if credits:
                kept = []
                for index in credits:
                    mask = (index < credit_lo) | (index >= credit_hi)
                    if mask.all():
                        kept.append(index)
                    elif mask.any():
                        kept.append(index[mask])
                self._credit_wheel[wheel_slot] = kept

    def _arm(self, slot: int, engine: "Engine", cycle: int) -> None:
        """Start ``engine`` in retired slot ``slot`` at kernel cycle ``cycle``."""
        if engine.network is not self._network:
            raise ValueError("every batch lane must share the compiled network")
        net = self._net
        self._lanes[slot] = engine
        self._offsets[slot] = cycle
        self._offset_list[slot] = cycle
        self._bounds[slot] = engine._phase_bounds()
        self._trace_mode[slot] = engine.trace_mode
        self._gate[slot * net.num_ivcs : (slot + 1) * net.num_ivcs] = True
        self._node_gate[slot * net.num_nodes : (slot + 1) * net.num_nodes] = True
        if self._lane_unjumpable(engine):
            self._num_unjumpable_running += 1

    # ------------------------------------------------------ quiescent jumps
    def _quiescent_target(self, cycle: int, running: list[bool]) -> int | None:
        """Earliest kernel cycle at which a quiescent kernel can act again.

        Only meaningful when the idle counters are all zero and no running
        lane draws randomness per cycle: the next observable action is then
        a wheel delivery, a trace record's creation, or a phase boundary
        (``- 1`` because the finish check runs post-increment, so landing
        one cycle short reproduces the sequential ``lane._cycle``).
        """
        net = self._net
        target = None
        for delta in range(net.wheel_size):
            wheel_slot = (cycle + delta) % net.wheel_size
            if self._flit_wheel[wheel_slot] or self._credit_wheel[wheel_slot]:
                target = cycle + delta
                break
        for lane_index, lane in enumerate(self._lanes):
            if not running[lane_index]:
                continue
            offset = self._offset_list[lane_index]
            if self._trace_mode[lane_index] and not lane._trace_injector.exhausted:
                candidate = offset + lane._trace_injector.next_cycle
            elif lane._measured_in_flight == 0:
                candidate = offset + self._bounds[lane_index][1] - 1
            else:
                candidate = offset + self._bounds[lane_index][2] - 1
            if target is None or candidate < target:
                target = candidate
        return target

    # ------------------------------------------------------------------ run
    def run(
        self,
        pending: "list[Engine] | None" = None,
        on_finish=None,
    ) -> list[SimulationStats]:
        """Run every lane to completion, recycling freed slots from ``pending``.

        ``on_finish(engine, stats)`` is invoked as each lane finishes (its
        statistics are finalized immediately); it may return an iterable of
        new engines to append to the pending queue.  The returned list holds
        one :class:`SimulationStats` per engine in submission order (initial
        lanes first, then pending engines in arming order).
        """
        lanes = self._lanes
        num_lanes = self._num_lanes
        queue: list[Engine] = list(pending) if pending else []
        order = list(lanes)
        stats_by_id: dict[int, SimulationStats] = {}
        running = [True] * num_lanes
        free_slots: list[int] = []
        unfinished = num_lanes
        cycle = 0
        bounds = self._bounds
        trace_mode = self._trace_mode
        offsets = self._offset_list
        while unfinished or queue:
            if queue and free_slots:
                free_slots.sort()
                while queue and free_slots:
                    slot = free_slots.pop(0)
                    engine = queue.pop(0)
                    self._arm(slot, engine, cycle)
                    order.append(engine)
                    running[slot] = True
                    unfinished += 1
                self._all_running = unfinished == num_lanes
            if (
                self._num_unjumpable_running == 0
                and self._buffered_total == 0
                and self._queued_total == 0
                and self._inflight_injections == 0
            ):
                target = self._quiescent_target(cycle, running)
                if target is not None and target > cycle:
                    cycle = target
            in_measurement = [
                trace_mode[lane_index]
                or bounds[lane_index][0]
                <= cycle - offsets[lane_index]
                < bounds[lane_index][1]
                for lane_index in range(num_lanes)
            ]
            self._deliver_events(cycle)
            self._create_packets(cycle, in_measurement, running)
            if self._queued_total or self._inflight_injections:
                self._inject_flits(cycle)
            if self._buffered_total:
                self._route(cycle, in_measurement)
            cycle += 1
            for lane_index, lane in enumerate(lanes):
                if not running[lane_index]:
                    continue
                local = cycle - offsets[lane_index]
                _, measurement_end, hard_end = bounds[lane_index]
                if local >= measurement_end and lane._measured_in_flight == 0:
                    lane_drained = True
                    finished = True
                elif local >= hard_end:
                    lane_drained = lane._measured_in_flight == 0
                    finished = True
                else:
                    finished = False
                if finished:
                    running[lane_index] = False
                    lane._cycle = local
                    unfinished -= 1
                    self._all_running = False
                    if self._lane_unjumpable(lane):
                        self._num_unjumpable_running -= 1
                    self._retire_lane(lane_index)
                    free_slots.append(lane_index)
                    stats = lane._finalize(lane_drained)
                    stats_by_id[id(lane)] = stats
                    if on_finish is not None:
                        extra = on_finish(lane, stats)
                        if extra:
                            queue.extend(extra)
        return [stats_by_id[id(engine)] for engine in order]


def run_batched(
    engines: "list[Engine]",
    pending: "list[Engine] | tuple[Engine, ...]" = (),
    on_finish=None,
) -> list[SimulationStats]:
    """Run many lanes of one compiled network in a single fused kernel.

    Every engine must be a ``vec`` lane sharing the *same* prebuilt
    :class:`~repro.simulator.network.Network` instance; each lane keeps its
    own traffic generator, phase bounds and statistics accumulator, so the
    result list is bit-identical to running each engine alone (asserted by
    ``tests/unit/test_batch.py`` and the differential suite).  Its one caller
    is :func:`repro.simulator.sweep.run_plans`.

    ``engines`` fixes the kernel width; ``pending`` engines are armed into
    slots as lanes finish (lane recycling), and ``on_finish(engine, stats)``
    — called as each lane's statistics are finalized — may return further
    engines to append to the pending queue.  Results come back in
    submission order: ``engines`` first, then recycled engines in arming
    order.
    """
    engines = list(engines)
    return _VecKernel(engines[0].network, engines).run(list(pending), on_finish)


class VecEngine(Engine):
    """Vectorized numpy kernel (see the module docstring).

    A single run is a batch of one; :func:`run_batched` fuses many runs of
    the same compiled network into one kernel invocation.
    """

    name = "vec"
    batch_axis = True

    def run(self) -> SimulationStats:
        return _VecKernel(self.network, [self]).run()[0]


__all__ = ["VecEngine", "run_batched"]
