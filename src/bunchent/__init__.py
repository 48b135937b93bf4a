"""Bunch-to-bunch entanglement of multiqubit states.

Groups of qubits (bunches) are read as single logical qubits through a
two-stage reduction: an ordinary partial trace onto the bunched qubits
followed by a sum of pattern-subspace compressions. The resulting 4x4
state feeds the standard two-qubit measures, concurrence and entanglement
of formation.
"""

from importlib import import_module

from . import errors  # loaded with the package; states (and numpy), bunching and measures wait for a name of theirs

__version__ = "0.1.0"

# each public name once, under the submodule that defines it
_NAMES = {
    "errors": ("BunchentError", "CapacityError", "FileFormatError", "InvariantError"),
    "states": ("DensityMatrix", "StateVector", "bell_w_state", "capacity_caps", "densify", "embedded_bell",
               "entanglement_molecule", "ghz", "ket_basis", "load_state", "mix", "normalize", "save_state",
               "state_defects", "tensor"),
    "bunching": ("BunchPartition", "BunchReduction", "PatternPair", "ReductionComponent", "bunch_reduce",
                 "enumerate_partitions", "enumerate_patterns", "partial_trace", "reduction_report",
                 "tripartite_triple"),
    "measures": ("EntanglementReport", "binary_entropy", "concurrence", "eof", "eof_bunches", "survey",
                 "survey_csv"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):  # a public name loads only its own submodule, on first use (PEP 562)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
