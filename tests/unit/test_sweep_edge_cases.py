"""Edge-case tests for :mod:`repro.simulator.sweep`.

Covers the boundary behaviours the happy-path sweep tests skip: a network
that is already saturated at the probe load, a non-draining run that hits
``drain_max_cycles``, bisection-bracket collapse (zero refinement and the
exact halving of successive midpoints), and the network-sharing fast path
being behaviour-identical to per-run construction.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.simulator.network import build_network
from repro.simulator.routing_tables import build_routing_tables
from repro.simulator.simulation import SimulationConfig, Simulator
from repro.simulator.sweep import (
    find_saturation_throughput,
    run_load_sweep,
)
from repro.topologies.mesh import MeshTopology
from repro.topologies.ring import RingTopology


class TestSaturatedAtProbeLoad:
    # 40-cycle links push the network latency past the measurement window;
    # with a zero drain budget, measured packets are then always still in
    # flight when the run is cut off, so every sweep point — including the
    # probe load — counts as saturated.
    CONFIG = SimulationConfig(
        warmup_cycles=50,
        measurement_cycles=100,
        drain_max_cycles=0,
        packet_size_flits=2,
        num_vcs=2,
        buffer_depth_flits=2,
        seed=6,
    )

    @staticmethod
    def _slow_links(topology):
        return {link: 40 for link in topology.links}

    def test_saturation_collapses_to_probe_rate(self):
        # The bracket degenerates to the probe load; the sweep must report
        # the probe rate, not crash or report zero.
        topology = MeshTopology(3, 3)
        result = find_saturation_throughput(
            topology,
            self.CONFIG,
            link_latencies=self._slow_links(topology),
            coarse_steps=3,
            refine_steps=2,
        )
        assert result.saturation_throughput == pytest.approx(0.01)
        # The probe point itself is saturated, so the sweep returns the
        # degenerate bracket immediately — no coarse or refine points.
        assert len(result.points) == 1
        assert all(not stats.drained for _, stats in result.points)

    def test_saturated_probe_never_reports_more_than_probe_rate(self):
        # Regression: before the probe-point check, ``lo`` was seeded to the
        # probe rate without ever testing it, so bisection against noisy
        # midpoints could raise the reported saturation throughput above any
        # load the network was shown to sustain.  With a saturated probe the
        # result must be exactly the probe rate, for any refinement depth.
        topology = MeshTopology(3, 3)
        for refine_steps in (0, 1, 5):
            result = find_saturation_throughput(
                topology,
                self.CONFIG,
                link_latencies=self._slow_links(topology),
                coarse_steps=4,
                refine_steps=refine_steps,
            )
            assert result.saturation_throughput == pytest.approx(0.01)
            assert [rate for rate, _ in result.points] == [0.01]
            # Golden value for this fixed-seed scenario (seed 6, 3x3 mesh,
            # 40-cycle links): packets that did arrive before the cutoff.
            assert result.zero_load_latency == 45.0

    def test_zero_load_latency_still_reported(self):
        topology = MeshTopology(3, 3)
        result = find_saturation_throughput(
            topology,
            self.CONFIG,
            link_latencies=self._slow_links(topology),
            coarse_steps=3,
            refine_steps=1,
        )
        assert result.zero_load_latency > 0


class TestNonDrainingRun:
    def test_run_stops_exactly_at_drain_limit(self):
        # A ring at 60% offered load is far beyond saturation: the measured
        # packets never fully drain, so the kernel must stop at the hard
        # cycle limit and flag the run as not drained.
        config = SimulationConfig(
            injection_rate=0.6,
            warmup_cycles=50,
            measurement_cycles=150,
            drain_max_cycles=200,
            packet_size_flits=2,
            num_vcs=2,
            buffer_depth_flits=2,
            seed=2,
        )
        simulator = Simulator(RingTopology(4, 4), config)
        stats = simulator.run()
        assert not stats.drained
        assert simulator.cycles_simulated == (
            config.warmup_cycles + config.measurement_cycles + config.drain_max_cycles
        )

    def test_non_draining_point_counts_as_saturated(self):
        config = SimulationConfig(
            injection_rate=0.6,
            warmup_cycles=50,
            measurement_cycles=150,
            drain_max_cycles=200,
            packet_size_flits=2,
            num_vcs=2,
            buffer_depth_flits=2,
            seed=2,
        )
        stats = Simulator(RingTopology(4, 4), config).run()
        assert stats.saturated


class TestBisectionBracket:
    CONFIG = SimulationConfig(
        warmup_cycles=100,
        measurement_cycles=200,
        drain_max_cycles=800,
        packet_size_flits=2,
        num_vcs=2,
        buffer_depth_flits=2,
        seed=4,
    )

    def _coarse_bracket(self, result):
        """Reconstruct the coarse bracket [last good, first saturated]."""
        rates = [rate for rate, _ in result.points]
        # The refine points are those after the first saturated coarse rate;
        # the bracket endpoints are the two rates around the break.
        return rates

    def test_zero_refine_steps_returns_coarse_bracket_low(self):
        # With the bracket never refined, the estimate collapses to the last
        # coarse rate that did not saturate.
        result = find_saturation_throughput(
            RingTopology(4, 4), self.CONFIG, coarse_steps=4, refine_steps=0
        )
        rates = [rate for rate, _ in result.points]
        assert result.saturation_throughput in rates
        # No refinement points beyond probe + coarse sweep.
        assert len(rates) <= 1 + 4

    def test_successive_bisection_midpoints_halve(self):
        # Each refinement step bisects the current bracket, so the distance
        # between successive midpoints halves exactly, whatever the outcome
        # of each probe.  This pins the bracket-collapse arithmetic.
        refine_steps = 4
        result = find_saturation_throughput(
            RingTopology(4, 4), self.CONFIG, coarse_steps=4, refine_steps=refine_steps
        )
        rates = [rate for rate, _ in result.points]
        mids = rates[-refine_steps:]
        assert len(mids) == refine_steps
        gaps = [abs(b - a) for a, b in zip(mids[:-1], mids[1:])]
        for wider, narrower in zip(gaps[:-1], gaps[1:]):
            assert narrower == pytest.approx(wider / 2.0)

    def test_estimate_stays_within_coarse_bracket(self):
        coarse = find_saturation_throughput(
            RingTopology(4, 4), self.CONFIG, coarse_steps=4, refine_steps=0
        )
        refined = find_saturation_throughput(
            RingTopology(4, 4), self.CONFIG, coarse_steps=4, refine_steps=5
        )
        lo = coarse.saturation_throughput
        saturated_rates = [
            rate
            for rate, stats in coarse.points
            if rate > lo
        ]
        hi = min(saturated_rates) if saturated_rates else 1.0
        assert lo <= refined.saturation_throughput < hi

    def test_rejects_too_few_coarse_steps(self):
        from repro.utils.validation import ValidationError

        with pytest.raises(ValidationError):
            find_saturation_throughput(RingTopology(4, 4), self.CONFIG, coarse_steps=1)


class TestNetworkSharing:
    def test_shared_network_is_behaviour_identical(self):
        # The sweep's network-sharing fast path must not change any result:
        # simulate the same config with a per-run network and with an
        # explicitly shared prebuilt network and compare every stats field.
        topology = MeshTopology(4, 4)
        config = SimulationConfig(
            injection_rate=0.08,
            warmup_cycles=100,
            measurement_cycles=200,
            drain_max_cycles=1000,
            packet_size_flits=2,
            num_vcs=4,
            buffer_depth_flits=2,
            seed=13,
        )
        per_run = Simulator(topology, config).run()
        routing = build_routing_tables(topology)
        shared = build_network(topology, config=config.network_config(), routing=routing)
        first = Simulator(topology, config, network=shared).run()
        second = Simulator(topology, config, network=shared).run()
        assert dataclasses.asdict(per_run) == dataclasses.asdict(first)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_mismatched_network_config_rejected(self):
        from repro.utils.validation import ValidationError

        topology = MeshTopology(3, 3)
        network = build_network(topology)  # default NetworkConfig: 8 VCs
        config = SimulationConfig(num_vcs=2)
        with pytest.raises(ValidationError):
            Simulator(topology, config, network=network)

    def test_sweep_helpers_accept_prebuilt_network(self):
        topology = MeshTopology(3, 3)
        config = SimulationConfig(
            warmup_cycles=50,
            measurement_cycles=100,
            drain_max_cycles=500,
            packet_size_flits=2,
            num_vcs=2,
            buffer_depth_flits=2,
            seed=8,
        )
        routing = build_routing_tables(topology)
        network = build_network(topology, config=config.network_config(), routing=routing)
        ((_, stats),) = run_load_sweep(topology, [0.01], config, network=network)
        assert stats.average_packet_latency > 0
        points = run_load_sweep(topology, [0.02, 0.05], config=config, network=network)
        assert [rate for rate, _ in points] == [0.02, 0.05]
