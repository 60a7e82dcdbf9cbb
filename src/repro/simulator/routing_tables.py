"""Routing tables: minimal routing plus a deadlock-free escape layer.

The paper's evaluation uses "a routing algorithm that minimizes the number of
router-to-router hops" (Figure 6 caption).  We implement this as table-based
minimal routing: for every (router, destination) pair the table stores the
next hop of a hop-minimal path.  Ties between hop-minimal next hops are broken
towards the *physically* shortest continuation (design principle ❹: among
hop-minimal paths, prefer the one with minimal physical length), and then by
neighbour index for determinism.

Deadlock freedom is provided with a Duato-style two-layer scheme:

* the *adaptive layer* (VCs ``1 .. V-1``) uses the minimal-routing table and
  may deadlock in isolation (e.g. on tori, whose wrap-around links create
  cyclic channel dependencies);
* the *escape layer* (VC ``0``) routes strictly along a BFS spanning tree
  rooted at tile 0: a packet first travels up the tree (towards the root)
  until it reaches the lowest common ancestor of source and destination, then
  down the tree to the destination.  Tree routing is a special case of
  up*/down* routing, its channel dependency graph is acyclic, and the
  next hop depends only on (current node, destination), so the escape layer
  is deadlock-free and table-implementable.

By Duato's theorem the combination is deadlock-free as long as a blocked
packet can always fall back to the escape layer, which the router guarantees:
once a packet enters the escape layer it stays there until delivery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.topologies.base import Topology
from repro.utils.validation import ValidationError


#: A per-node table indexed ``table[node][destination]``: the builder makes
#: lists, hand-built tables may use one dict per node.
NodeTable = Sequence[Sequence[int] | Mapping[int, int]]


@dataclass
class RoutingTables:
    """Next-hop tables of one topology.

    Attributes
    ----------
    minimal:
        ``minimal[node][destination] -> next hop`` along a hop-minimal path.
    escape:
        ``escape[node][destination] -> next hop`` along the spanning-tree
        (escape) path.
    hop_distance:
        ``hop_distance[node][destination]`` -> minimal hop count.
    tree_parent:
        Parent of every node in the escape spanning tree (root's parent is -1).

    The ``node == destination`` entries of ``minimal`` and ``escape`` carry no
    route (a packet there ejects); the builder sets them to ``node``.
    """

    minimal: NodeTable
    escape: NodeTable
    hop_distance: NodeTable
    tree_parent: list[int]

    def path(self, source: int, destination: int, escape: bool = False) -> list[int]:
        """Full node path from ``source`` to ``destination`` (for tests/analysis)."""
        table = self.escape if escape else self.minimal
        path = [source]
        current = source
        limit = 2 * len(self.minimal) + 2
        while current != destination:
            current = table[current][destination]
            path.append(current)
            if len(path) > limit:
                raise ValidationError(
                    f"routing table loop detected from {source} to {destination}"
                )
        return path


def _spanning_tree(topology: Topology, root: int = 0) -> list[int]:
    """BFS spanning tree: ``parent[node]`` (-1 for the root)."""
    parent = [-2] * topology.num_tiles
    parent[root] = -1
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor in topology.neighbors(node):
            if parent[neighbor] == -2:
                parent[neighbor] = node
                queue.append(neighbor)
    return parent


def _escape_tables(parent: list[int]) -> np.ndarray:
    """Spanning-tree next-hop tables (up to the common ancestor, then down).

    The default next hop towards any destination is the node's tree parent
    ("up"); for every node that lies on the tree path from the root to the
    destination the next hop is overridden with the child leading towards the
    destination ("down").  ``ancestor[d, t]`` is the ancestor of ``d`` at
    depth ``t``, so node ``n`` lies on that path exactly when
    ``ancestor[d, depth[n]] == n``, and its child there is
    ``ancestor[d, depth[n] + 1]``.  The diagonal holds the node itself.
    """
    num = len(parent)
    parents = np.array(parent, dtype=np.int64)
    depth = np.zeros(num, dtype=np.int64)
    above = parents
    while (above >= 0).any():
        depth += above >= 0
        above = np.where(above >= 0, parents[above], -1)
    ancestor = np.full((num, int(depth.max()) + 2), -1, dtype=np.int64)
    nodes = np.arange(num)
    ancestor[nodes, depth] = nodes
    for level in range(int(depth.max()), 0, -1):
        deeper = depth >= level
        ancestor[deeper, level - 1] = parents[ancestor[deeper, level]]
    on_path = ancestor[:, depth].T == nodes[:, None]
    escape = np.where(on_path, ancestor[:, depth + 1].T, parents[:, None])
    escape[nodes, nodes] = nodes
    return escape


def build_routing_tables(topology: Topology) -> RoutingTables:
    """Build minimal and escape routing tables for ``topology``.

    The minimal tables are :attr:`Topology.hop_minimal_paths
    <repro.topologies.base.Topology.hop_minimal_paths>`, the pass that also
    answers the topology's graph queries.
    """
    topology.validate_connected()
    paths = topology.hop_minimal_paths
    parent = _spanning_tree(topology, root=0)
    return RoutingTables(
        minimal=paths.next_hop.tolist(),
        escape=_escape_tables(parent).tolist(),
        hop_distance=paths.hop_distance.tolist(),
        tree_parent=parent,
    )
