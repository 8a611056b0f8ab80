"""Cell lists and Verlet neighbor lists.

Neighbor-list construction is one of the kernels ddcMD moved to the
GPU.  The structure here is the standard two-stage scheme: a
:class:`CellList` bins particles into cells no smaller than the
interaction range, then :class:`NeighborList` enumerates candidate
pairs from the 27-cell neighborhoods, keeps those within
``cutoff + skin``, and reuses the list until any particle has moved
half a skin — the classic Verlet-skin criterion.

Pair arrays are half lists (i < j) in flat ``(n_pairs,)`` index arrays:
exactly the contiguous layout the paper's "multiple threads per
particle neighbor list ... contiguous memory regions" optimization
wants.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.md.particles import ParticleSystem, PeriodicBox
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs import validate as _validate
from repro.util.state import COPY, Field, Stateful, fields


class CellList:
    """Bin particles of *system* into cells of size >= cell_size."""

    def __init__(self, box: PeriodicBox, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.box = box
        self.dims = tuple(
            max(1, int(np.floor(l / cell_size))) for l in box.lengths
        )
        self.cell_lengths = tuple(
            l / d for l, d in zip(box.lengths, self.dims)
        )

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def assign(self, x: np.ndarray) -> np.ndarray:
        """Cell index per particle."""
        dims = np.asarray(self.dims)
        cl = np.asarray(self.cell_lengths)
        idx = np.floor(x / cl).astype(np.int64)
        idx = np.mod(idx, dims)  # guard particles exactly at L
        nx, ny, nz = self.dims
        return (idx[:, 0] * ny + idx[:, 1]) * nz + idx[:, 2]

    def neighbor_cells(self, cell: int) -> np.ndarray:
        """The 27 periodic neighbor cells of *cell* (deduplicated)."""
        nx, ny, nz = self.dims
        cx, rem = divmod(cell, ny * nz)
        cy, cz = divmod(rem, nz)
        offsets = np.array(
            np.meshgrid([-1, 0, 1], [-1, 0, 1], [-1, 0, 1], indexing="ij")
        ).reshape(3, -1).T
        coords = (offsets + [cx, cy, cz]) % [nx, ny, nz]
        flat = (coords[:, 0] * ny + coords[:, 1]) * nz + coords[:, 2]
        return np.unique(flat)


class NeighborList(Stateful):
    """Verlet half neighbor list with skin-based reuse.

    ``method`` selects the build kernel: ``"fast"`` (default) bins and
    queries in compiled code — a periodic :class:`scipy.spatial.cKDTree`
    over the wrapped coordinates, the whole candidate enumeration and
    distance cut in C; ``"reference"`` is the original per-cell Python
    loop, kept as the slow trusted implementation the fast path is
    tested against.  Both produce the same pair *set*; ordering may
    differ, which only permutes floating-point force summation.

    The list is checkpoint state: its skin-reuse decision depends on
    the reference positions, and a different pair ordering changes
    force summation order — enough to break bit-for-bit replay.
    """

    _STATE = (
        *fields("pairs_i", "pairs_j", kind=COPY),
        Field("x_ref", COPY, "_x_ref"),
        Field("box_ref", COPY, "_box_ref"),
        *fields("builds", "reuses"),
    )

    def __init__(self, cutoff: float, skin: float = 0.3,
                 method: str = "fast"):
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if skin < 0:
            raise ValueError("skin must be non-negative")
        if method not in ("fast", "reference"):
            raise ValueError(f"unknown build method {method!r}")
        self.cutoff = cutoff
        self.skin = skin
        self.method = method
        self.pairs_i: np.ndarray = np.empty(0, dtype=np.int64)
        self.pairs_j: np.ndarray = np.empty(0, dtype=np.int64)
        self._x_ref: Optional[np.ndarray] = None
        self._box_ref: Optional[np.ndarray] = None
        self.builds = 0
        self.reuses = 0

    @property
    def n_pairs(self) -> int:
        return self.pairs_i.shape[0]

    def needs_rebuild(self, system: ParticleSystem) -> bool:
        if self._x_ref is None or self._x_ref.shape != system.x.shape:
            return True
        if not np.array_equal(self._box_ref, system.box.array):
            return True
        dx = system.box.minimum_image(system.x - self._x_ref)
        max_disp = float(np.sqrt((dx * dx).sum(axis=1)).max())
        return max_disp > 0.5 * self.skin

    def update(self, system: ParticleSystem) -> None:
        """Rebuild if the skin criterion demands it."""
        if self.needs_rebuild(system):
            self.build(system)
        else:
            self.reuses += 1
            _metrics.counter("md.neighbor.reuses").add()

    def invalidate(self) -> None:
        """Drop the reference positions so the next update rebuilds.

        The guard layer's step-rejection recovery uses this: a
        stale/corrupted pair list is the classic source of exploding
        forces, and a forced rebuild is the cheapest fix to try.
        """
        self._x_ref = None
        self._box_ref = None

    def degenerate_box(self, system: ParticleSystem) -> bool:
        """True when any box length is below ``2 * (cutoff + skin)``.

        In that regime a periodic dimension has fewer than two full
        interaction cells, and single-image tree queries (the fast
        build) are not guaranteed correct across SciPy versions —
        older periodic kd-trees silently confine the search to the
        nearest image, missing (or on some versions rejecting) pairs
        whose minimum-image distance exceeds half the box.  The
        reference cell build handles any box (worst case it degrades
        to one all-pairs cell with exact minimum-image distances).
        """
        reach = self.cutoff + self.skin
        lengths = np.asarray(system.box.lengths, dtype=np.float64)
        return bool(np.min(lengths) < 2.0 * reach)

    def build(self, system: ParticleSystem) -> None:
        x = np.asarray(system.x, dtype=np.float64)
        with _trace.span("md.neighbor.build", n=system.n,
                         method=self.method):
            if self.method == "reference":
                self._build_reference(system, x)
            elif self.degenerate_box(system):
                # fast path unsafe: fall back to the trusted build
                _metrics.counter("md.neighbor.degenerate_fallbacks").add()
                self._build_reference(system, x)
            else:
                self._build_fast(system, x)
                if _validate.validation_enabled():
                    self._validate_fast_build(system, x)
        self._x_ref = x.copy()
        self._box_ref = system.box.array.copy()
        self.builds += 1
        _metrics.counter("md.neighbor.rebuilds").add()
        _metrics.gauge("md.neighbor.pairs").set(self.n_pairs)

    @staticmethod
    def _canonical_pairs(pi: np.ndarray, pj: np.ndarray) -> np.ndarray:
        """Order-independent (n_pairs, 2) canonical form of a half list."""
        lo = np.minimum(pi, pj)
        hi = np.maximum(pi, pj)
        order = np.lexsort((hi, lo))
        return np.stack([lo[order], hi[order]], axis=1)

    def _validate_fast_build(self, system: ParticleSystem,
                             x: np.ndarray) -> None:
        """Fast-build contract: same pair *set* as the reference build."""
        fast_i, fast_j = self.pairs_i, self.pairs_j
        try:
            self._build_reference(system, x)
            ref = self._canonical_pairs(self.pairs_i, self.pairs_j)
        finally:
            self.pairs_i, self.pairs_j = fast_i, fast_j
        fast = self._canonical_pairs(fast_i, fast_j)
        _validate.check(
            "md.neighbor", fast.shape == ref.shape
            and bool(np.array_equal(fast, ref)),
            f"fast build found {fast.shape[0]} pairs, "
            f"reference {ref.shape[0]}",
        )

    def _build_reference(self, system: ParticleSystem, x: np.ndarray) -> None:
        """Per-cell Python loop (the pre-vectorization implementation)."""
        reach = self.cutoff + self.skin
        cells = CellList(system.box, reach)
        cell_of = cells.assign(x)
        order = np.argsort(cell_of, kind="stable")
        sorted_cells = cell_of[order]
        # bucket boundaries per cell
        starts = np.searchsorted(sorted_cells, np.arange(cells.n_cells))
        ends = np.searchsorted(sorted_cells, np.arange(cells.n_cells),
                               side="right")
        pi, pj = [], []
        reach2 = reach * reach
        for cell in range(cells.n_cells):
            mine = order[starts[cell]:ends[cell]]
            if mine.size == 0:
                continue
            for nbr in cells.neighbor_cells(cell):
                if nbr < cell:
                    continue  # half enumeration over cell pairs
                theirs = order[starts[nbr]:ends[nbr]]
                if theirs.size == 0:
                    continue
                if nbr == cell:
                    ii, jj = np.triu_indices(mine.size, k=1)
                    ci, cj = mine[ii], mine[jj]
                else:
                    ci = np.repeat(mine, theirs.size)
                    cj = np.tile(theirs, mine.size)
                dx = system.box.minimum_image(x[ci] - x[cj])
                r2 = (dx * dx).sum(axis=1)
                keep = r2 <= reach2
                pi.append(ci[keep])
                pj.append(cj[keep])
        if pi:
            self.pairs_i = np.concatenate(pi)
            self.pairs_j = np.concatenate(pj)
        else:
            self.pairs_i = np.empty(0, dtype=np.int64)
            self.pairs_j = np.empty(0, dtype=np.int64)

    def _build_fast(self, system: ParticleSystem, x: np.ndarray) -> None:
        """Tree-accelerated build: bin + query entirely in compiled code.

        A broadcast rewrite of the per-cell loop (27-offset neighbor
        ids for every cell at once, ragged all-pairs expansion, one
        minimum-image pass) turns out memory-bound in NumPy: at
        cell size = reach only ~10% of the candidate pairs survive the
        distance cut, and streaming the other 90% through the gather /
        wrap / reduce pipeline costs more than the reference's loop
        overhead saves.  A periodic kd-tree keeps the whole candidate
        walk in C and never materializes rejected candidates.  Pair
        indices refer to the original (unwrapped) particle order;
        wrapping the coordinates into the box only canonicalizes them
        for the tree and cannot change periodic distances.
        """
        reach = self.cutoff + self.skin
        lengths = np.asarray(system.box.lengths, dtype=np.float64)
        xw = np.mod(x, lengths)
        # mod can return L itself when x is a tiny negative number
        xw[xw >= lengths] = 0.0
        tree = cKDTree(xw, boxsize=lengths)
        pairs = tree.query_pairs(reach, output_type="ndarray")
        self.pairs_i = np.ascontiguousarray(pairs[:, 0], dtype=np.int64)
        self.pairs_j = np.ascontiguousarray(pairs[:, 1], dtype=np.int64)

    def brute_force_reference(self, system: ParticleSystem
                              ) -> Tuple[np.ndarray, np.ndarray]:
        """O(n^2) pair enumeration within cutoff+skin (for testing)."""
        x = np.asarray(system.x, dtype=np.float64)
        n = x.shape[0]
        ii, jj = np.triu_indices(n, k=1)
        dx = system.box.minimum_image(x[ii] - x[jj])
        r2 = (dx * dx).sum(axis=1)
        keep = r2 <= (self.cutoff + self.skin) ** 2
        return ii[keep], jj[keep]
