#!/usr/bin/env python3
"""Declarative campaigns: grid expansion, memoization, and CLI parity.

This example shows the batch-first workflow of :mod:`repro.experiments`:

1. expand a cartesian grid (topologies x traffic patterns) into experiment
   specs — inapplicable topology/size combinations are filtered automatically;
2. run the campaign through an :class:`ExperimentRunner` with a SQLite
   result store, then run it again to show that every result is served from
   the store (the ``spec_id`` content hash is the memoization key);
3. save the campaign as JSON — the exact file ``repro campaign --spec ...``
   consumes — and export the results as CSV records.

Run with:  python examples/campaign_grid.py [rows cols]      (default: 4 4)
"""

import sys
import tempfile
from pathlib import Path

from repro import Campaign, ExperimentRunner


def main() -> None:
    rows = int(sys.argv[1]) if len(sys.argv) > 2 else 4
    cols = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    campaign = Campaign.grid(
        topologies=("mesh", "torus", "hypercube", "slimnoc", "sparse_hamming"),
        sizes=((rows, cols),),
        traffics=("uniform", "tornado"),
        topology_kwargs={"sparse_hamming": {"s_r": [2], "s_c": [2]}},
        arch={"endpoint_area_ge": 5e6},
        name=f"grid-{rows}x{cols}",
    )
    print(f"campaign {campaign.name!r} expands to {len(campaign)} specs")
    print("(inapplicable topologies were skipped automatically)")
    print()

    with tempfile.TemporaryDirectory() as tmp:
        runner = ExperimentRunner(store=Path(tmp) / "results.sqlite")

        results = runner.run(campaign)
        print(f"first run:  {len(results)} results, {results.num_cached} from cache")
        rerun = runner.run(campaign)
        print(f"second run: {len(rerun)} results, {rerun.num_cached} from cache")
        print()

        spec_file = Path(tmp) / "campaign.json"
        campaign.save(spec_file)
        print(f"campaign JSON (consumable by `repro campaign --spec ...`):")
        print(f"  {spec_file}  ({spec_file.stat().st_size} bytes)")

        csv_file = Path(tmp) / "results.csv"
        results.to_csv(csv_file)
        print(f"result CSV: {csv_file}  ({len(results.to_records())} rows)")
        print()

    print(f"{'topology':<16s} {'traffic':<10s} {'latency':>9s} {'sat.thr':>9s}")
    for record in results.to_records():
        print(
            f"{record['topology']:<16s} {record['traffic']:<10s} "
            f"{record['zero_load_latency_cycles']:8.1f}c "
            f"{100 * record['saturation_throughput']:8.2f}%"
        )


if __name__ == "__main__":
    main()
