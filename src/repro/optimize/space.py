"""Search spaces over topology families and their parameters.

A :class:`SearchSpace` declares, per topology family, which parameterisations
the optimizer may consider; :meth:`SearchSpace.enumerate_candidates` expands
it into a deterministic, duplicate-free list of :class:`Candidate` entries.
Three block forms are supported per family:

``{}``
    The family's default instance (mesh, torus, flattened butterfly, ...).

``{"grid": {param: [values, ...], ...}}``
    A cartesian product over generator keyword arguments — e.g. Ruche
    ``row_skip``/``col_skip`` choices.

``{"max_configurations": N}``  (sparse Hamming graph only)
    Up to ``N`` ``(S_R, S_C)`` configurations chosen by
    :func:`repro.analysis.design_space.select_configurations`: exhaustive
    when the ``2^(R+C-4)`` space fits, otherwise a seeded random sample that
    always includes the mesh and flattened-butterfly endpoints.

Families that are not applicable to the grid (hypercube on non-power-of-two
grids, SlimNoC off its ``R*C = 2*q^2`` sizes) are skipped, mirroring
:meth:`repro.experiments.Campaign.grid`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.analysis.design_space import select_configurations
from repro.topologies.base import Topology
from repro.topologies.registry import (
    TOPOLOGY_FACTORIES,
    available_topologies,
    is_applicable,
    make_topology,
)
from repro.utils.validation import ValidationError, check_type


@dataclass(frozen=True)
class Candidate:
    """One point of the search space: a topology family plus generator kwargs."""

    topology: str
    topology_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGY_FACTORIES:
            raise ValidationError(
                f"unknown topology {self.topology!r}; known: {available_topologies()}"
            )
        object.__setattr__(self, "topology_kwargs", dict(self.topology_kwargs))

    @property
    def sort_key(self) -> tuple[str, str]:
        """Deterministic tie-breaking key (family name, canonical kwargs)."""
        return (self.topology, json.dumps(self.topology_kwargs, sort_keys=True))

    def __hash__(self) -> int:
        # The generated hash would trip over the kwargs dict; the canonical
        # sort key carries the same identity and is hashable.
        return hash(self.sort_key)

    def build(self, rows: int, cols: int, endpoints_per_tile: int = 1) -> Topology:
        """Instantiate this candidate for an ``R x C`` grid.

        Raises
        ------
        ValidationError
            On generator kwargs the topology factory rejects (so a bad
            ``grid`` block or baseline fails fast with a clean message
            instead of a mid-search ``TypeError``).
        """
        return make_topology(
            self.topology,
            rows,
            cols,
            endpoints_per_tile=endpoints_per_tile,
            **dict(self.topology_kwargs),
        )

    def describe(self) -> str:
        """Short human-readable label (family plus non-default kwargs)."""
        if not self.topology_kwargs:
            return self.topology
        return f"{self.topology} {json.dumps(self.topology_kwargs, sort_keys=True)}"


@dataclass(frozen=True)
class SearchSpace:
    """Declarative search space over topology families for one grid.

    Attributes
    ----------
    rows, cols:
        The tile grid every candidate is built for.
    families:
        Mapping of topology registry name to a parameter block (see module
        docstring for the three supported forms).
    seed:
        Seed of the sparse-Hamming configuration sampler (ignored when the
        configuration space is enumerated exhaustively).

    Examples
    --------
    >>> space = SearchSpace(
    ...     rows=4, cols=4,
    ...     families={
    ...         "mesh": {},
    ...         "torus": {},
    ...         "sparse_hamming": {"max_configurations": 8},
    ...     },
    ... )
    >>> len(space.enumerate_candidates())
    10
    """

    rows: int
    cols: int
    families: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        check_type("rows", self.rows, int)
        check_type("cols", self.cols, int)
        check_type("seed", self.seed, int)
        if self.rows < 1 or self.cols < 1 or self.rows * self.cols < 2:
            raise ValidationError("search space needs a grid of at least 2 tiles")
        if not self.families:
            raise ValidationError("search space needs at least one topology family")
        families = dict(self.families)
        for name, block in families.items():
            if name not in TOPOLOGY_FACTORIES:
                raise ValidationError(
                    f"unknown topology {name!r}; known: {available_topologies()}"
                )
            if not isinstance(block, Mapping):
                raise ValidationError(
                    f"family {name!r} block must be a mapping, got {block!r}"
                )
            block = dict(block)
            unknown = set(block) - {"grid", "max_configurations"}
            if unknown:
                raise ValidationError(
                    f"family {name!r}: unknown block keys {sorted(unknown)}; "
                    "known: ['grid', 'max_configurations']"
                )
            if "grid" in block and "max_configurations" in block:
                raise ValidationError(
                    f"family {name!r}: 'grid' and 'max_configurations' are "
                    "mutually exclusive"
                )
            if "max_configurations" in block:
                if name != "sparse_hamming":
                    raise ValidationError(
                        "'max_configurations' only applies to 'sparse_hamming'"
                    )
                count = block["max_configurations"]
                check_type("max_configurations", count, int)
                if count < 2:
                    raise ValidationError("max_configurations must be >= 2")
            if "grid" in block:
                grid = block["grid"]
                if not isinstance(grid, Mapping) or not all(
                    isinstance(values, (list, tuple)) for values in grid.values()
                ):
                    raise ValidationError(
                        f"family {name!r}: 'grid' must map parameter names to "
                        "value lists"
                    )
        object.__setattr__(self, "families", families)

    def enumerate_candidates(self) -> list[Candidate]:
        """Expand the space into a deterministic list of candidates.

        Families are visited in sorted name order; within a family, grid
        blocks expand in sorted-parameter cartesian order and sampled
        sparse-Hamming configurations keep the sampler's order (endpoints
        first).  Inapplicable families are skipped.  Duplicate candidates
        (identical family + kwargs) collapse to one entry.
        """
        candidates: list[Candidate] = []
        seen: set[tuple[str, str]] = set()

        def add(candidate: Candidate) -> None:
            if candidate.sort_key not in seen:
                seen.add(candidate.sort_key)
                candidates.append(candidate)

        for name in sorted(self.families):
            if not is_applicable(name, self.rows, self.cols):
                continue
            block = dict(self.families[name])
            if "max_configurations" in block:
                configurations = select_configurations(
                    self.rows, self.cols, block["max_configurations"], seed=self.seed
                )
                for s_r, s_c in configurations:
                    add(
                        Candidate(
                            topology=name,
                            topology_kwargs={"s_r": sorted(s_r), "s_c": sorted(s_c)},
                        )
                    )
            elif "grid" in block:
                grid = block["grid"]
                names = sorted(grid)
                for values in itertools.product(*(grid[key] for key in names)):
                    add(
                        Candidate(
                            topology=name,
                            topology_kwargs=dict(zip(names, values)),
                        )
                    )
            else:
                add(Candidate(topology=name))
        return candidates

    def size(self) -> int:
        """Number of distinct candidates the space expands to."""
        return len(self.enumerate_candidates())

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (the families block only).

        ``rows``, ``cols`` and ``seed`` live on the owning
        :class:`~repro.optimize.spec.SearchSpec` and are re-supplied on
        :meth:`from_dict`.
        """
        return {name: dict(block) for name, block in self.families.items()}

    @classmethod
    def from_dict(
        cls, families: Mapping[str, Any], rows: int, cols: int, seed: int = 0
    ) -> "SearchSpace":
        """Rebuild a space from a families block plus grid and seed."""
        return cls(rows=rows, cols=cols, families=families, seed=seed)


__all__ = ["Candidate", "SearchSpace"]
