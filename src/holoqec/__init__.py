"""holoqec: a numerical laboratory for fault-tolerant code families.

Codes are frames (points of a Grassmannian with a chosen orthonormal basis),
fault-tolerant gate implementations are paths acting on frames, and logical
gates are the classified holonomies of loops.  Two worked verticals: the
transversal gate group on the five-qubit code, and string-operator braiding
of defects in the toric code.
"""

from .codes import (
    Code,
    CorrectionReport,
    DistanceResult,
    NotLogicalError,
    code_from_json,
    code_to_json,
    correction_condition,
    distance,
    logical_action,
    stabilizer_code,
)
from .errors import (
    EnumerationCapError,
    ErrorSet,
    GeoLattice,
    conjugated_error_set,
    geolocal_errors,
    squdit_errors,
)
from .fivequbit import R3, five_qubit_code, logical_x, logical_z, stabilizer_generators
from .frames import (
    DenseSizeError,
    EmptySpanError,
    Frame,
    orthonormalize,
    principal_overlap,
    subspace_distance,
)
from .pauli import (
    LocalOperator,
    PauliString,
    alpha,
    apply_pauli,
    beta,
    interp_matrix,
    pauli_mul,
)
from .transport import FlatnessReport, HolonomyResult, NotALoopError, classify
from .transversal import (
    LieAlgebraBasis,
    TransversalPath,
    TransversalUnitary,
    TrivialActionReport,
    check_projectively_trivial_action,
    code_lie_algebra,
    exponential_path,
    fl_lie_algebra,
    flatness_probe_transversal,
    pauli_generator_path,
    transversal_holonomy,
)

__version__ = "0.1.0"
