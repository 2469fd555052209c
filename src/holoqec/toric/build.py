"""Toric codespaces with defects, built by ``codes.stabilizer_code``.

The joint eigenspace (A_v = +-1, B_f = +-1 with flipped signs at defects) is
fixed by L^2 - 1 plaquettes and L^2 - 1 stars, each negated at a defect.  The
four seeds, one per homology class, have the dual defects' face fluxes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codes import Code, stabilizer_code
from ..frames import Frame
from ..pauli import PauliString
from .lattice import (
    DEFAULT_SEPARATION,
    DefectConfig,
    Edge,
    TorusLattice,
    hardcore_check,
    wrapped_step,
)

__all__ = ["ToricCode", "build_code", "ParityError", "ConfigError"]


class ParityError(ValueError):
    """Odd number of primal or dual defects; the global stabilizer product
    forces even counts."""


class ConfigError(ValueError):
    """Defect configuration has a site off the lattice or violates the hard-core condition."""


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
        sx, nx = wrapped_step(L, x, tx)
        for _ in range(nx):
            step = Edge(x, y, "h") if sx > 0 else Edge(lat.wrap(x - 1), y, "h")
            bits ^= 1 << lat.edge_index(lat.dual_crossing_qubit(step))
            x = lat.wrap(x + sx)
        sy, ny = wrapped_step(L, y, ty)
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

    The code's stabilizer generators are L^2 - 1 plaquettes and L^2 - 1 stars,
    each negated at a defect.

    Raises ParityError for odd defect counts (caught by DefectConfig), and
    ConfigError for a site that is not a pair of ints in range(L) or when the
    hard-core condition fails at ``separation``.
    """
    if len(cfg.primal) % 2 or len(cfg.dual) % 2:
        raise ParityError("defect counts must be even")
    for kind in ("primal", "dual"):
        for site in cfg.sites(kind):
            if not (
                isinstance(site, tuple)
                and len(site) == 2
                and all(type(c) is int and 0 <= c < lat.L for c in site)
            ):
                raise ConfigError(f"{kind} site {site!r} is not a pair of ints in range({lat.L})")
    hc = hardcore_check(lat, cfg, separation)
    if not hc.ok:
        raise ConfigError(
            f"hard-core violation at separation {separation}: "
            f"{hc.violating_pair} at distance {hc.min_distance}"
        )

    b0 = _dual_pairing_string(lat, cfg)
    row, col = _homology_shifts(lat)
    n, primal, dual = lat.n_edges, set(cfg.primal), set(cfg.dual)
    # the product of all plaquettes, and that of all stars, is 1: L^2 - 1 of each generate
    plaquettes = [PauliString(n, 0, face_mask(lat, f), 2 * (f in dual)) for f in lat.faces()[:-1]]
    stars = [PauliString(n, vertex_mask(lat, v), 0, 2 * (v in primal)) for v in lat.vertices()[:-1]]
    code = stabilizer_code(plaquettes + stars, (b0, b0 ^ row, b0 ^ col, b0 ^ row ^ col))
    return ToricCode(lat, cfg, separation, code)
