"""Toric codespaces with defects, built on the vertex group from seed states.

The joint eigenspace (A_v = +-1, B_f = +-1 with flipped signs at defects) is
constructed by (i) choosing four computational seed strings satisfying all
diagonal face constraints, one per homology class, and (ii) projecting each
with the vertex projectors (1 + eps_v A_v)/2.  The projected seed b is
uniform over its coset b ^ G of the vertex group G: the basis state b ^ g,
g the X-support of the star product over a vertex set S, carries the sign
prod_{v in S} eps_v and the amplitude 1/sqrt|G|.  The build enumerates G
directly, so it is exact and touches only the 4 |G| support rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codes import Code
from ..frames import Frame, check_dense_size
from ..pauli import PauliString
from .lattice import (
    DEFAULT_SEPARATION,
    DefectConfig,
    Edge,
    TorusLattice,
    hardcore_check,
)

__all__ = ["ToricCode", "build_code", "ParityError", "ConfigError"]


class ParityError(ValueError):
    """Odd number of primal or dual defects; the global stabilizer product
    forces even counts."""


class ConfigError(ValueError):
    """Defect configuration violates the hard-core condition."""


@dataclass(frozen=True)
class ToricCode:
    """A built toric codespace bundled with its lattice and configuration."""

    lat: TorusLattice
    cfg: DefectConfig
    separation: int
    code: Code

    @property
    def frame(self) -> Frame:
        return self.code.frame

    @property
    def n(self) -> int:
        return self.code.n

    def with_frame(self, frame: Frame, cfg: DefectConfig) -> "ToricCode":
        return ToricCode(self.lat, cfg, self.separation, Code(frame, self.code.qudit_dims))


def _edge_mask(lat: TorusLattice, edges) -> int:
    m = 0
    for e in edges:
        m |= 1 << lat.edge_index(e)
    return m


def vertex_mask(lat: TorusLattice, v) -> int:
    """X-support of the star operator at v."""
    return _edge_mask(lat, lat.vertex_star(v))


def face_mask(lat: TorusLattice, f) -> int:
    """Z-support of the plaquette operator at f."""
    return _edge_mask(lat, lat.face_boundary(f))


def _dual_pairing_string(lat: TorusLattice, cfg: DefectConfig) -> int:
    """Bit string whose face fluxes match the dual-defect pattern.

    Pairs the dual defects in listed order and connects each pair by a greedy
    dual path (x steps first, then y, minimal wrapped deltas, ties toward +),
    toggling the primal edge crossed at every dual step.
    """
    bits = 0
    L = lat.L
    for k in range(0, len(cfg.dual), 2):
        (x, y), (tx, ty) = cfg.dual[k], cfg.dual[k + 1]
        dx = (tx - x) % L
        sx, nx = (1, dx) if dx <= L - dx else (-1, L - dx)
        for _ in range(nx):
            step = Edge(x, y, "h") if sx > 0 else Edge(lat.wrap(x - 1), y, "h")
            bits ^= 1 << lat.edge_index(lat.dual_crossing_qubit(step))
            x = lat.wrap(x + sx)
        dy = (ty - y) % L
        sy, ny = (1, dy) if dy <= L - dy else (-1, L - dy)
        for _ in range(ny):
            step = Edge(x, y, "v") if sy > 0 else Edge(x, lat.wrap(y - 1), "v")
            bits ^= 1 << lat.edge_index(lat.dual_crossing_qubit(step))
            y = lat.wrap(y + sy)
    return bits


def _homology_shifts(lat: TorusLattice) -> tuple[int, int]:
    """Zero-flux strings in the two nontrivial dual homology classes.

    A dual row crosses the vertical edges of one row; a dual column crosses
    the horizontal edges of one column.
    """
    row = _edge_mask(lat, (Edge(x, 0, "v") for x in range(lat.L)))
    col = _edge_mask(lat, (Edge(0, y, "h") for y in range(lat.L)))
    return row, col


def build_code(
    lat: TorusLattice, cfg: DefectConfig, separation: int = DEFAULT_SEPARATION
) -> ToricCode:
    """Build the K = 4 eigenspace for a defect configuration.

    The code's stabilizer generators are L^2 - 1 stars and L^2 - 1 plaquettes.

    Raises ParityError for odd defect counts (caught by DefectConfig) and
    ConfigError when the hard-core condition fails at ``separation``.
    """
    if len(cfg.primal) % 2 or len(cfg.dual) % 2:
        raise ParityError("defect counts must be even")
    hc = hardcore_check(lat, cfg, separation)
    if not hc.ok:
        raise ConfigError(
            f"hard-core violation at separation {separation}: "
            f"{hc.violating_pair} at distance {hc.min_distance}"
        )

    b0 = _dual_pairing_string(lat, cfg)
    row, col = _homology_shifts(lat)
    seeds = [b0, b0 ^ row, b0 ^ col, b0 ^ row ^ col]

    dual_set = set(cfg.dual)
    for b in seeds:  # diagonal constraints hold exactly by construction
        for f in lat.faces():
            flux = (b & face_mask(lat, f)).bit_count() & 1
            if flux != (1 if f in dual_set else 0):
                raise AssertionError("seed violates a face constraint")

    # the star product over all vertices is 1, so any L^2 - 1 stars generate G
    verts = list(lat.vertices())[:-1]
    size = 1 << len(verts)
    check_dense_size(len(seeds) * size * (8 + 16 * len(seeds)), "the support rows of a toric code")
    group = np.zeros(1, dtype=np.int64)
    signs = np.ones(1)
    primal_set = set(cfg.primal)
    for v in verts:
        eps = -1.0 if v in primal_set else 1.0
        group = np.concatenate([group, group ^ vertex_mask(lat, v)])
        signs = np.concatenate([signs, eps * signs])

    rows = np.concatenate([b ^ group for b in seeds])
    order = np.argsort(rows)
    rows = rows[order]
    if np.any(np.diff(rows) == 0):
        raise AssertionError("toric construction must yield K = 4")
    # sorted row i is element order[i] % size of the coset of seed order[i] // size
    vals = np.zeros((rows.size, len(seeds)), dtype=complex)
    vals[np.arange(rows.size), order // size] = signs[order % size] / np.sqrt(size)
    frame = Frame.from_rows(1 << lat.n_edges, rows, vals)
    n = lat.n_edges
    stabilizers = tuple(PauliString(n, vertex_mask(lat, v), 0) for v in verts) + tuple(
        PauliString(n, 0, face_mask(lat, f)) for f in lat.faces()[:-1]
    )
    return ToricCode(lat, cfg, separation, Code(frame, (2,) * n, stabilizers))
