"""Bunch-to-bunch entanglement of multiqubit states.

Groups of qubits (bunches) are read as single logical qubits through a
two-stage reduction: an ordinary partial trace onto the bunched qubits
followed by a sum of pattern-subspace compressions. The resulting 4x4
state feeds the standard two-qubit measures, concurrence and entanglement
of formation.
"""

from .errors import BunchentError, CapacityError, FileFormatError, InvariantError
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
    "bunch_reduce",
    "capacity_caps",
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
    "mix",
    "normalize",
    "partial_trace",
    "reduction_report",
    "save_state",
    "state_defects",
    "survey",
    "survey_csv",
    "tensor",
    "tripartite_triple",
]


def __getattr__(name: str):  # bunching and measures load on first use of a name of theirs (PEP 562)
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import bunching, measures
    value = globals()[name] = getattr(bunching if hasattr(bunching, name) else measures, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
