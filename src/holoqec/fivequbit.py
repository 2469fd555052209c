"""The ((5, 2, 3)) code fixture and its transversal gate set.

Generators are XZZXI and its cyclic shifts; logical X and Z are the weight-5
products.  The code is ``codes.stabilizer_code`` of the four generators,
and it is validated in-suite (distance 3, stabilizer action) rather than
trusted.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .codes import Code, stabilizer_code
from .pauli import PauliString

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
    """The stabilizer code of the four XZZXI shifts, seeded with |00000> and |11111>.

    |1_L> = X^5 |0_L> holds exactly because X^5 commutes with every
    generator, so the logical X action in this basis is the exact bit flip.
    Built once per process: the Code is frozen and its frame read-only, so
    every caller shares it, and with it the code's Pauli block kernel.
    """
    return stabilizer_code(stabilizer_generators(), (0, 31))
