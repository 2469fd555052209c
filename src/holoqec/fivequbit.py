"""The ((5, 2, 3)) code fixture and its transversal gate set.

Generators are XZZXI and its cyclic shifts; logical X and Z are the weight-5
products.  The fixture is validated in-suite (distance 3, stabilizer action)
rather than trusted.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .codes import Code
from .frames import orthonormalize
from .pauli import PauliString, apply_pauli

__all__ = [
    "STABILIZER_LABELS",
    "stabilizer_generators",
    "logical_x",
    "logical_z",
    "five_qubit_code",
    "R3",
]

STABILIZER_LABELS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")

# Single-qubit Clifford rotation cycling X -> Y -> Z -> X under conjugation:
# the 2pi/3 rotation about (1,1,1)/sqrt(3).
R3 = 0.5 * np.array([[1 - 1j, -1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)


def stabilizer_generators() -> tuple[PauliString, ...]:
    return tuple(PauliString.from_label(s) for s in STABILIZER_LABELS)


def logical_x() -> PauliString:
    return PauliString.from_label("XXXXX")


def logical_z() -> PauliString:
    return PauliString.from_label("ZZZZZ")


@cache
def five_qubit_code() -> Code:
    """Codespace via the stabilizer projector applied to |00000> and |11111>.

    |1_L> = X^5 |0_L| holds exactly because X^5 commutes with every
    generator, so the logical X action in this basis is the exact bit flip.
    Built once per process: the Code is frozen and its frame read-only, so
    every caller shares it, and with it the code's Pauli block kernel.
    """
    n = 5
    seeds = [np.zeros(2**n, dtype=complex) for _ in range(2)]
    seeds[0][0] = 1.0
    seeds[1][-1] = 1.0
    gens = stabilizer_generators()
    vecs = []
    for seed in seeds:
        v = seed
        for g in gens:
            v = 0.5 * (v + apply_pauli(g, v))
        vecs.append(v)
    frame = orthonormalize(vecs)
    if frame.K != 2:
        raise AssertionError("five-qubit construction must yield K = 2")
    return Code(frame, (2,) * n, gens)
