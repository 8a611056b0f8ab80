"""The templatized generic pair-processing infrastructure (§4.6).

"Given the ubiquitous need to process pairs of particles in MD
potentials, we developed a templatized generic pair processing
infrastructure that can be used to efficiently implement a diverse set
of potential forms on GPUs."

Here the template parameter is a :class:`PairPotential`: any object
exposing ``cutoff`` and a vectorized ``energy_force(r2)`` returning
per-pair energy and ``f_over_r`` (so the processor never takes a square
root it does not need).  :class:`PairProcessor` does everything else —
minimum-image displacements, cutoff masking, force/energy/virial
accumulation, per-type-pair mixing — identically for every potential.

Potentials provided: :class:`LennardJones`, :class:`Exp6`
(Buckingham), and :class:`MartiniLJ` (LJ with the Martini-style
shift-to-zero at the cutoff so forces are continuous).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Tuple

import numpy as np

from repro.md.particles import ParticleSystem
from repro.obs import metrics as _metrics
from repro.obs import validate as _validate


class PairPotential(Protocol):
    cutoff: float

    def energy_force(self, r2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(energy, f_over_r) per pair; r2 is squared distance."""
        ...


@dataclass(frozen=True)
class LennardJones:
    """Truncated 12-6 Lennard-Jones."""

    epsilon: float = 1.0
    sigma: float = 1.0
    cutoff: float = 2.5

    def __post_init__(self) -> None:
        if self.epsilon <= 0 or self.sigma <= 0 or self.cutoff <= 0:
            raise ValueError("LJ parameters must be positive")

    def energy_force(self, r2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        s2 = self.sigma * self.sigma / r2
        s6 = s2 * s2 * s2
        s12 = s6 * s6
        e = 4.0 * self.epsilon * (s12 - s6)
        f_over_r = 24.0 * self.epsilon * (2.0 * s12 - s6) / r2
        return e, f_over_r

    def energy_force_into(self, r2: np.ndarray, e: np.ndarray,
                          f: np.ndarray, tmp: np.ndarray) -> None:
        """Allocation-free twin of :meth:`energy_force`.

        Writes per-pair energy into *e* and ``f_over_r`` into *f*
        using *tmp* as scratch; every per-pair value is bit-identical
        to the allocating path (same operation order), so the fused
        kernel inherits the validation contract for free.
        """
        np.divide(self.sigma * self.sigma, r2, out=tmp)   # s2
        np.multiply(tmp, tmp, out=f)
        np.multiply(f, tmp, out=f)                        # s6
        np.multiply(f, f, out=e)                          # s12
        np.subtract(e, f, out=tmp)                        # s12 - s6
        np.multiply(e, 2.0, out=e)
        np.subtract(e, f, out=f)                          # 2 s12 - s6
        np.multiply(f, 24.0 * self.epsilon, out=f)
        np.divide(f, r2, out=f)
        np.multiply(tmp, 4.0 * self.epsilon, out=e)


@dataclass(frozen=True)
class Exp6:
    """Buckingham exp-6: A exp(-B r) - C / r^6."""

    a: float = 1000.0
    b: float = 3.0
    c: float = 1.0
    cutoff: float = 3.0
    #: inner wall radius: exp-6 turns over unphysically at small r,
    #: so clamp below this separation (standard practice)
    r_min: float = 0.5

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c, self.cutoff, self.r_min) <= 0:
            raise ValueError("exp-6 parameters must be positive")

    def energy_force(self, r2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        r = np.sqrt(np.maximum(r2, self.r_min * self.r_min))
        e = self.a * np.exp(-self.b * r) - self.c / r**6
        f_over_r = (self.a * self.b * np.exp(-self.b * r) / r
                    - 6.0 * self.c / r**8)
        return e, f_over_r


@dataclass(frozen=True)
class MartiniLJ:
    """Martini-style LJ with potential-and-force shift to zero at cutoff.

    The Martini coarse-grained force field uses shifted LJ so both the
    potential and the force vanish continuously at the cutoff — the
    property that lets it run at large timesteps.
    """

    epsilon: float = 1.0
    sigma: float = 0.47
    cutoff: float = 1.2

    def __post_init__(self) -> None:
        if self.epsilon <= 0 or self.sigma <= 0 or self.cutoff <= 0:
            raise ValueError("Martini parameters must be positive")
        if self.cutoff <= self.sigma:
            raise ValueError("cutoff must exceed sigma")

    def _plain(self, r2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        s2 = self.sigma * self.sigma / r2
        s6 = s2 * s2 * s2
        s12 = s6 * s6
        e = 4.0 * self.epsilon * (s12 - s6)
        f_over_r = 24.0 * self.epsilon * (2.0 * s12 - s6) / r2
        return e, f_over_r

    def energy_force(self, r2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        rc2 = np.asarray([self.cutoff * self.cutoff])
        e_c, f_c = self._plain(rc2)
        r = np.sqrt(r2)
        e, f_over_r = self._plain(r2)
        # linear force shift: F(r) -> F(r) - F(rc); E adjusted to match
        f_shift = f_c[0] * self.cutoff
        e_shifted = (
            e - e_c[0] + f_shift * (r - self.cutoff)
        )
        f_over_r_shifted = f_over_r - f_shift / r
        return e_shifted, f_over_r_shifted


class _FusedWorkspace:
    """Preallocated pair-length scratch reused across force evals.

    The fused kernel's whole point is that between two calls on the
    same (reused) neighbor list, nothing is allocated: geometry,
    potential math, masking and the virial all run through these
    buffers, and the scatter writes into the same ``forces`` array.
    """

    __slots__ = ("m", "n", "dx", "r2", "tmp", "e", "f", "mask", "forces")

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.dx = np.empty((3, m))
        self.r2 = np.empty(m)
        self.tmp = np.empty(m)
        self.e = np.empty(m)
        self.f = np.empty(m)
        self.mask = np.empty(m)
        self.forces = np.empty((n, 3))


class PairProcessor:
    """Evaluate any pair potential over a neighbor list.

    ``potential`` may be one object (all pairs identical) or a dict
    keyed by sorted type pairs ``(ti, tj)`` for mixed systems.

    Force accumulation has three paths.  ``method="fused"`` (default,
    single-potential systems) runs one cross-kernel pipeline — gather,
    minimum image, potential math, cutoff mask, energy/virial
    reductions and the bincount scatter — entirely in preallocated
    per-pair workspaces with the cutoff applied as a 0/1 multiply, so
    a neighbor-list-reuse step does no gather-by-fancy-index copies
    and no allocation.  ``method="fast"`` scatters per-pair forces
    with ``np.bincount`` — one contiguous weighted histogram per
    component, the vectorized analog of the paper's
    contiguous-neighbor-list GPU accumulation — and is what ``fused``
    falls back to for type-pair tables (per-group gathers are the
    right shape there).  ``method="reference"`` keeps the original
    ``np.add.at`` scatter.  All paths compute the same sums; only fp
    summation order differs (and per-pair LJ terms in the fused path
    are bit-identical to the reference formula).
    """

    def __init__(self, potential, max_cutoff: Optional[float] = None):
        self._ws: Optional[_FusedWorkspace] = None
        if isinstance(potential, dict):
            if not potential:
                raise ValueError("empty potential table")
            self.table: Optional[Dict[Tuple[int, int], PairPotential]] = {
                tuple(sorted(k)): v for k, v in potential.items()
            }
            self.single: Optional[PairPotential] = None
            self.cutoff = max(v.cutoff for v in potential.values())
        else:
            self.table = None
            self.single = potential
            self.cutoff = potential.cutoff
        if max_cutoff is not None:
            self.cutoff = max_cutoff

    def _fused_workspace(self, m: int, n: int) -> _FusedWorkspace:
        if self._ws is None or self._ws.m != m or self._ws.n != n:
            self._ws = _FusedWorkspace(m, n)
        return self._ws

    def _compute_fused(
        self,
        system: ParticleSystem,
        pairs_i: np.ndarray,
        pairs_j: np.ndarray,
    ) -> Tuple[np.ndarray, float, float]:
        """One fused pass over the pair list, zero allocations.

        Component-major geometry (``(3, m)`` workspaces) replaces the
        ``(m, 3)`` fancy-index gathers of the unfused paths: each
        component is a contiguous 1-D ``take`` / subtract / round
        chain, the cutoff is a 0/1 float multiply instead of an index
        selection, and the per-component scatter reuses the same
        ``bincount`` indices for every call on a reused neighbor list.
        """
        pot = self.single
        x = system.x.astype(np.float64, copy=False)
        n = system.n
        m = int(pairs_i.size)
        ws = self._fused_workspace(m, n)
        forces = ws.forces
        forces.fill(0.0)
        energy = 0.0
        virial = 0.0
        if m:
            box = system.box.array
            xt = np.ascontiguousarray(x.T)
            dx, r2, tmp = ws.dx, ws.r2, ws.tmp
            r2.fill(0.0)
            for d in range(3):
                dxd = dx[d]
                np.take(xt[d], pairs_i, out=dxd)
                np.take(xt[d], pairs_j, out=tmp)
                np.subtract(dxd, tmp, out=dxd)
                np.divide(dxd, box[d], out=tmp)
                np.round(tmp, out=tmp)
                np.multiply(tmp, box[d], out=tmp)
                np.subtract(dxd, tmp, out=dxd)
                np.multiply(dxd, dxd, out=tmp)
                np.add(r2, tmp, out=r2)
            e, f = ws.e, ws.f
            if hasattr(pot, "energy_force_into"):
                pot.energy_force_into(r2, e, f, tmp)
            else:
                ev, fv = pot.energy_force(r2)
                e[...] = ev
                f[...] = fv
            np.less_equal(r2, pot.cutoff * pot.cutoff, out=ws.mask)
            np.multiply(e, ws.mask, out=e)
            np.multiply(f, ws.mask, out=f)
            energy = float(e.sum())
            np.multiply(f, r2, out=tmp)
            virial = float(tmp.sum())
            for d in range(3):
                np.multiply(f, dx[d], out=tmp)
                forces[:, d] += np.bincount(pairs_i, weights=tmp,
                                            minlength=n)
                forces[:, d] -= np.bincount(pairs_j, weights=tmp,
                                            minlength=n)
        return forces, energy, virial

    def compute(
        self,
        system: ParticleSystem,
        pairs_i: np.ndarray,
        pairs_j: np.ndarray,
        method: str = "fused",
    ) -> Tuple[np.ndarray, float, float]:
        """Returns (forces (n,3), potential energy, virial).

        Virial convention: W = sum over pairs of r . F; pressure is
        then ``(2 K + W) / (3 V)``.
        """
        if method not in ("fused", "fast", "reference"):
            raise ValueError(f"unknown accumulation method {method!r}")
        if method == "fused" and self.table is not None:
            method = "fast"
        if method == "fused":
            forces, energy, virial = self._compute_fused(
                system, pairs_i, pairs_j
            )
            _metrics.counter("md.forces.evals").add()
            _metrics.counter("md.forces.fused").add()
            if _validate.validation_enabled():
                f_ref, e_ref, w_ref = self.compute(
                    system, pairs_i, pairs_j, method="reference"
                )
                _validate.check_allclose(
                    "md.forces", forces.astype(system.dtype), f_ref,
                    rtol=1e-9, atol=1e-9,
                )
                _validate.check_allclose(
                    "md.forces.energy", [energy, virial], [e_ref, w_ref],
                    rtol=1e-9, atol=1e-9,
                )
            return forces.astype(system.dtype), energy, virial
        x = system.x.astype(np.float64, copy=False)
        dx = system.box.minimum_image(x[pairs_i] - x[pairs_j])
        r2 = (dx * dx).sum(axis=1)
        n = system.n
        forces = np.zeros((n, 3))
        energy = 0.0
        virial = 0.0
        if self.single is not None:
            groups = [(self.single, np.arange(pairs_i.size))]
        else:
            ti = system.types[pairs_i]
            tj = system.types[pairs_j]
            lo = np.minimum(ti, tj)
            hi = np.maximum(ti, tj)
            groups = []
            for key, pot in self.table.items():
                sel = np.flatnonzero((lo == key[0]) & (hi == key[1]))
                if sel.size:
                    groups.append((pot, sel))
        for pot, sel in groups:
            r2s = r2[sel]
            within = r2s <= pot.cutoff * pot.cutoff
            idx = sel[within]
            if idx.size == 0:
                continue
            e, f_over_r = pot.energy_force(r2[idx])
            fvec = f_over_r[:, None] * dx[idx]
            if method == "fast":
                gi, gj = pairs_i[idx], pairs_j[idx]
                for d in range(3):
                    forces[:, d] += np.bincount(
                        gi, weights=fvec[:, d], minlength=n
                    )
                    forces[:, d] -= np.bincount(
                        gj, weights=fvec[:, d], minlength=n
                    )
            else:
                np.add.at(forces, pairs_i[idx], fvec)
                np.add.at(forces, pairs_j[idx], -fvec)
            energy += float(e.sum())
            virial += float((f_over_r * r2[idx]).sum())
        _metrics.counter("md.forces.evals").add()
        if method == "fast" and _validate.validation_enabled():
            # bincount-scatter contract: allclose to np.add.at up to
            # fp summation order
            f_ref, e_ref, w_ref = self.compute(
                system, pairs_i, pairs_j, method="reference"
            )
            _validate.check_allclose(
                "md.forces", forces.astype(system.dtype), f_ref,
                rtol=1e-9, atol=1e-9,
            )
            _validate.check_allclose(
                "md.forces.energy", [energy, virial], [e_ref, w_ref],
                rtol=1e-9, atol=1e-9,
            )
        return forces.astype(system.dtype), energy, virial
