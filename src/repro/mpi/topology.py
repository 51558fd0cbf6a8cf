"""Tofu Interconnect D topology: the 6-D torus of Fugaku.

Fugaku's nodes are addressed by six coordinates ``(x, y, z, a, b, c)``
(paper ref. [4]): three *global* torus axes ``x, y, z`` and three *local*
axes with fixed extents ``(a, b, c) = (2, 3, 2)`` inside a board/rack
group.  The paper's collective benchmarks request the scheduler shape
``node=4x6x16:torus`` (384 nodes) with 4 ranks per node (1536 ranks).

:class:`TofuDTopology` models exactly that: a torus of requested global
shape whose unit is the 12-node Tofu group, dimension-ordered routing
for hop counts, and a rank→node placement with a configurable
ranks-per-node factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Tuple

__all__ = ["TofuDTopology", "NodeCoord"]

NodeCoord = Tuple[int, int, int, int, int, int]

#: Fixed extents of the local (a, b, c) axes of Tofu-D.
LOCAL_SHAPE = (2, 3, 2)

#: dense hop matrices, one per topology value (topologies are frozen).
_HOPS_MATRICES: dict = {}

#: above this node count the dense matrix stops paying for itself.
_HOPS_MATRIX_MAX_NODES = 4096


@dataclass(frozen=True)
class TofuDTopology:
    """A Tofu-D torus allocation.

    Parameters
    ----------
    global_shape:
        Extents of the ``(x, y, z)`` axes *in Tofu groups*.  The paper's
        ``node=4x6x16`` allocation with torus placement corresponds to
        ``global_shape=(4, 6, 16)`` nodes when ``use_local_axes=False``
        (the scheduler exposes a logical node torus); with
        ``use_local_axes=True`` the x/y/z shape counts groups of 12.
    ranks_per_node:
        MPI ranks placed on each node (Fugaku: 4 for the paper's runs,
        1 for the ping-pong benchmark).
    use_local_axes:
        Whether nodes expand into the fixed ``2x3x2`` local axes.
    """

    global_shape: Tuple[int, int, int] = (4, 6, 16)
    ranks_per_node: int = 4
    use_local_axes: bool = False

    def __post_init__(self) -> None:
        if any(s < 1 for s in self.global_shape):
            raise ValueError("global shape extents must be >= 1")
        if self.ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> int:
        n = self.global_shape[0] * self.global_shape[1] * self.global_shape[2]
        if self.use_local_axes:
            n *= LOCAL_SHAPE[0] * LOCAL_SHAPE[1] * LOCAL_SHAPE[2]
        return n

    @property
    def ranks(self) -> int:
        return self.nodes * self.ranks_per_node

    # ------------------------------------------------------------------
    def node_of_rank(self, rank: int) -> int:
        """Block placement: consecutive ranks fill a node first."""
        if not (0 <= rank < self.ranks):
            raise ValueError(f"rank {rank} out of range [0, {self.ranks})")
        return rank // self.ranks_per_node

    def coords_of_node(self, node: int) -> NodeCoord:
        """Dimension-ordered coordinates of a node index."""
        if not (0 <= node < self.nodes):
            raise ValueError(f"node {node} out of range [0, {self.nodes})")
        gx, gy, gz = self.global_shape
        if self.use_local_axes:
            la, lb, lc = LOCAL_SHAPE
            node, c = divmod(node, lc)
            node, b = divmod(node, lb)
            node, a = divmod(node, la)
        else:
            a = b = c = 0
        node, z = divmod(node, gz)
        node, y = divmod(node, gy)
        x = node
        assert x < gx
        return (x, y, z, a, b, c)

    def coords_of_rank(self, rank: int) -> NodeCoord:
        return self.coords_of_node(self.node_of_rank(rank))

    # ------------------------------------------------------------------
    def _torus_distance(self, a: int, b: int, extent: int) -> int:
        d = abs(a - b)
        return min(d, extent - d)

    def hops(self, rank_a: int, rank_b: int) -> int:
        """Dimension-ordered routing hop count between two ranks.

        Zero for ranks on the same node (shared-memory communication).
        """
        na, nb = self.node_of_rank(rank_a), self.node_of_rank(rank_b)
        if na == nb:
            return 0
        ca, cb = self.coords_of_node(na), self.coords_of_node(nb)
        gx, gy, gz = self.global_shape
        extents = (gx, gy, gz) + LOCAL_SHAPE
        h = 0
        for va, vb, ext in zip(ca, cb, extents):
            # x/y/z are tori; the local a/c axes are meshes of extent 2
            # and b of extent 3 — torus distance is correct for both at
            # these sizes.
            h += self._torus_distance(va, vb, ext)
        return max(h, 1)

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        return self.node_of_rank(rank_a) == self.node_of_rank(rank_b)

    def hops_matrix(self):
        """Dense node-to-node hop matrix, or None for huge allocations.

        ``mat[na, nb]`` equals :meth:`hops` for ranks on distinct nodes
        ``na != nb`` (the diagonal is clamped to 1 by the same
        ``max(h, 1)`` and must be short-circuited by a same-node check,
        exactly as :meth:`hops` does).  Built vectorised once per
        topology value and shared process-wide — this is the event
        engine's answer to per-message dimension-ordered routing.
        """
        mat = _HOPS_MATRICES.get(self)
        if mat is None:
            if self.nodes > _HOPS_MATRIX_MAX_NODES:
                return None
            import numpy as np

            gx, gy, gz = self.global_shape
            idx = np.arange(self.nodes, dtype=np.int64)
            axes = []
            if self.use_local_axes:
                la, lb, lc = LOCAL_SHAPE
                idx, c = np.divmod(idx, lc)
                idx, b = np.divmod(idx, lb)
                idx, a = np.divmod(idx, la)
                axes = [(a, la), (b, lb), (c, lc)]
            idx, z = np.divmod(idx, gz)
            idx, y = np.divmod(idx, gy)
            axes = [(idx, gx), (y, gy), (z, gz)] + axes
            h = np.zeros((self.nodes, self.nodes), dtype=np.int16)
            for v, ext in axes:
                v16 = v.astype(np.int16)
                d = np.abs(v16[:, None] - v16[None, :])
                np.minimum(d, np.int16(ext) - d, out=d)
                h += d
            np.maximum(h, 1, out=h)
            _HOPS_MATRICES[self] = mat = h
        return mat

    def average_hops(self, sample_ranks: Sequence[int] | None = None) -> float:
        """Mean pairwise hop count (over a sample for large allocations)."""
        ranks = list(sample_ranks) if sample_ranks is not None else list(
            range(0, self.ranks, max(1, self.ranks // 64))
        )
        total, count = 0, 0
        for i, ra in enumerate(ranks):
            for rb in ranks[i + 1 :]:
                total += self.hops(ra, rb)
                count += 1
        return total / count if count else 0.0

    @classmethod
    def for_ranks(
        cls, nranks: int, ranks_per_node: int = 1
    ) -> "TofuDTopology":
        """A roughly-cubic torus with capacity for ``nranks`` ranks."""
        nodes_needed = -(-nranks // ranks_per_node)
        # Factor into a flat-ish 3D box.
        best = (1, 1, nodes_needed)
        target = round(nodes_needed ** (1 / 3)) or 1
        for x in range(1, nodes_needed + 1):
            if nodes_needed % x:
                continue
            rem = nodes_needed // x
            for y in range(1, rem + 1):
                if rem % y:
                    continue
                z = rem // y
                cand = (x, y, z)
                if _spread(cand) < _spread(best):
                    best = cand
        return cls(global_shape=best, ranks_per_node=ranks_per_node)


def _spread(shape: Tuple[int, int, int]) -> int:
    return max(shape) - min(shape)
