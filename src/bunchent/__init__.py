"""Bunch-to-bunch entanglement of multiqubit states.

Groups of qubits (bunches) are read as single logical qubits through a
two-stage reduction: an ordinary partial trace onto the bunched qubits
followed by a sum of pattern-subspace compressions. The resulting 4x4
state feeds the standard two-qubit measures, concurrence and entanglement
of formation.
"""

from .bunching import (
    BunchPartition,
    BunchReduction,
    PatternPair,
    ReductionComponent,
    build_projector,
    bunch_reduce,
    compress_operator,
    enumerate_partitions,
    enumerate_patterns,
    logical_index,
    reduction_report,
    tripartite_triple,
)
from .errors import BunchentError, CapacityError, FileFormatError, InvariantError
from .measures import (
    EntanglementReport,
    binary_entropy,
    concurrence,
    eof,
    eof_bunches,
    spin_flip,
    survey,
    survey_csv,
)
from .states import (
    DensityMatrix,
    StateVector,
    bell_w_state,
    capacity_caps,
    densify,
    embedded_bell,
    entanglement_molecule,
    ghz,
    ket_basis,
    load_state,
    mix,
    normalize,
    partial_trace,
    save_state,
    state_defects,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "BunchPartition",
    "BunchReduction",
    "BunchentError",
    "CapacityError",
    "DensityMatrix",
    "EntanglementReport",
    "FileFormatError",
    "InvariantError",
    "PatternPair",
    "ReductionComponent",
    "StateVector",
    "bell_w_state",
    "binary_entropy",
    "build_projector",
    "bunch_reduce",
    "capacity_caps",
    "compress_operator",
    "concurrence",
    "densify",
    "embedded_bell",
    "entanglement_molecule",
    "enumerate_partitions",
    "enumerate_patterns",
    "eof",
    "eof_bunches",
    "ghz",
    "ket_basis",
    "load_state",
    "logical_index",
    "mix",
    "normalize",
    "partial_trace",
    "reduction_report",
    "save_state",
    "spin_flip",
    "state_defects",
    "survey",
    "survey_csv",
    "tensor",
    "tripartite_triple",
]
