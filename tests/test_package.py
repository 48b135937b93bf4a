"""The package namespace and its record classes.

`bunchent` imports only `errors` eagerly, so neither `states` nor numpy
loads before `python -m bunchent` reaches its entry. Every public name is
listed once, under the submodule that defines it, and resolves on first
use by loading only that submodule: `from bunchent import BunchPartition`
loads `bunching` but not `measures`. The seven record classes are plain
classes, not dataclasses: each test below pins a behaviour the
dataclasses had.
"""

import copy
import json
import pickle
import subprocess
import sys

import numpy as np
import pytest

import bunchent
from bunchent import (
    BunchPartition,
    BunchReduction,
    DensityMatrix,
    EntanglementReport,
    PatternPair,
    ReductionComponent,
    StateVector,
    bunch_reduce,
    densify,
    eof_bunches,
    ghz,
)
from bunchent import bunching, errors, measures, states


def _fresh(code: str) -> dict:
    """Run `code` in a fresh interpreter and return the JSON it prints."""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


_LOADED = "import json, sys; print(json.dumps({m: m in sys.modules for m in %r}))"
_HEAVY = ("bunchent.bunching", "bunchent.measures", "dataclasses")


def test_importing_the_package_loads_neither_numpy_nor_states():
    # `python -m bunchent` runs __init__ before __main__.run turns the collector off
    code = "import bunchent\n" + _LOADED % (("numpy", "bunchent.states"),)
    assert _fresh(code) == {"numpy": False, "bunchent.states": False}


def test_reading_a_state_loads_neither_bunching_nor_measures():
    code = "from bunchent import StateVector, densify, load_state\n" + _LOADED % (_HEAVY,)
    assert _fresh(code) == dict.fromkeys(_HEAVY, False)


def test_the_cli_loads_no_dataclasses():
    code = "import bunchent.cli\n" + _LOADED % (_HEAVY,)
    assert _fresh(code) == {"bunchent.bunching": True, "bunchent.measures": True, "dataclasses": False}


@pytest.mark.parametrize("name, loaded", [
    ("BunchPartition", {"bunchent.bunching": True, "bunchent.measures": False}),
    ("CapacityError", {"bunchent.bunching": False, "bunchent.measures": False}),
])
def test_a_lazy_name_loads_only_its_own_submodule(name, loaded):
    code = f"from bunchent import {name}\n" + _LOADED % (tuple(loaded),)
    assert _fresh(code) == loaded


def test_every_public_name_resolves_to_its_submodule_object():
    # in a fresh process, so that each lazy name takes the first-use path
    code = """
import json, sys
import bunchent
homes = {"bunchent." + m for m in ("errors", "states", "bunching", "measures")}
found = {}
for name in bunchent.__all__:
    value = getattr(bunchent, name)
    found[name] = value.__module__ in homes and getattr(sys.modules[value.__module__], name) is value
print(json.dumps(found))
"""
    assert _fresh(code) == dict.fromkeys(bunchent.__all__, True)


def test_star_import_and_dir_list_the_public_names():
    code = """
import json
import bunchent
listed = dir(bunchent)
namespace = {}
exec("from bunchent import *", namespace)
print(json.dumps([sorted(set(bunchent.__all__) - set(listed)), sorted(set(bunchent.__all__) - set(namespace))]))
"""
    assert _fresh(code) == [[], []]


def test_unknown_names_raise_attribute_error():
    assert getattr(bunchent, "nope", None) is None
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        bunchent.nope  # noqa: B018
    with pytest.raises(ImportError):
        exec("from bunchent import nope", {})


# ---------------------------------------------------------------------------
# record classes

def _records():
    psi = ghz(3)
    partition = BunchPartition((1,), (2, 3))
    reduction = bunch_reduce(psi, partition)
    return {
        "StateVector": psi,
        "DensityMatrix": densify(psi),
        "BunchPartition": partition,
        "PatternPair": PatternPair((0,), (1,)),
        "ReductionComponent": reduction.components[0],
        "BunchReduction": reduction,
        "EntanglementReport": eof_bunches(psi, partition),
    }


_FIELDS = {
    "StateVector": ("n_qubits", "amplitudes"),
    "DensityMatrix": ("n_qubits", "entries"),
    "BunchPartition": ("bunch_a", "bunch_b"),
    "PatternPair": ("mask_a", "mask_b"),
    "ReductionComponent": ("pattern", "eta", "rho_pattern"),
    "BunchReduction": ("partition", "rho_ab", "components"),
    "EntanglementReport": ("concurrence", "eof", "lambdas", "partition", "etas"),
}


@pytest.mark.parametrize("kind", sorted(_FIELDS))
def test_record_fields_cannot_be_assigned_or_deleted(kind):
    record = _records()[kind]
    assert record.__match_args__ == _FIELDS[kind]
    for name in (*_FIELDS[kind], "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)


def test_record_repr_is_the_dataclass_text():
    # the texts the dataclasses printed
    assert repr(BunchPartition((1,), [2, 3])) == "BunchPartition(bunch_a=(1,), bunch_b=(2, 3))"
    assert repr(PatternPair((0, 1), ())) == "PatternPair(mask_a=(0, 1), mask_b=())"
    report = EntanglementReport(0.5, 0.25, (1.0, 0.5, 0.0, 0.0))
    assert repr(report) == ("EntanglementReport(concurrence=0.5, eof=0.25, lambdas=(1.0, 0.5, 0.0, 0.0), "
                            "partition=None, etas=None)")
    psi = StateVector(1, [1.0, 0.0])
    assert repr(psi) == f"StateVector(n_qubits=1, amplitudes={psi.amplitudes!r})"
    rho = densify(psi)
    component = ReductionComponent(PatternPair((), ()), 1.0, rho)
    assert repr(component) == f"ReductionComponent(pattern=PatternPair(mask_a=(), mask_b=()), eta=1.0, rho_pattern={rho!r})"
    assert repr(BunchReduction(BunchPartition((1,), (2,)), rho, (component,))) == (
        f"BunchReduction(partition=BunchPartition(bunch_a=(1,), bunch_b=(2,)), rho_ab={rho!r}, "
        f"components=({component!r},))")


def test_partitions_and_patterns_compare_and_hash_by_value():
    a, b = BunchPartition((1,), (2, 3)), BunchPartition([1], np.array([2, 3]))
    assert a == b and hash(a) == hash(b) == hash(((1,), (2, 3)))
    assert a != BunchPartition((1,), (3, 2)) and a != ((1,), (2, 3))
    assert len({a, b, BunchPartition((2,), (3,))}) == 2
    p, q = PatternPair((0,), (1,)), PatternPair((0,), (1,))
    assert p == q and hash(p) == hash(q) == hash(((0,), (1,))) and p != PatternPair((1,), (1,))
    assert a != p


@pytest.mark.parametrize("kind", ["StateVector", "DensityMatrix", "ReductionComponent", "BunchReduction",
                                  "EntanglementReport"])
def test_other_records_compare_by_identity(kind):
    record = _records()[kind]
    twin = copy.copy(record)
    assert record == record and record != twin
    assert hash(record) == object.__hash__(record) and hash(twin) != hash(record)


def test_records_build_from_keywords():
    psi = StateVector(n_qubits=1, amplitudes=[0.0, 1.0])
    rho = DensityMatrix(entries=densify(psi).entries, n_qubits=1)
    partition = BunchPartition(bunch_b=(3,), bunch_a=(1, 2))
    pattern = PatternPair(mask_a=(1,), mask_b=())
    component = ReductionComponent(pattern=pattern, eta=1.0, rho_pattern=None)
    reduction = BunchReduction(partition=partition, rho_ab=rho, components=(component,))
    report = EntanglementReport(concurrence=0.0, eof=0.0, lambdas=(0.0,) * 4, etas=(1.0,))
    assert (psi.n_qubits, rho.n_qubits, partition.labels, reduction.etas) == (1, 1, (1, 2, 3), (1.0,))
    assert (report.partition, report.etas) == (None, (1.0,))
    with pytest.raises(ValueError, match="must not share"):
        BunchPartition(bunch_a=(1,), bunch_b=(1,))
    with pytest.raises(TypeError):
        PatternPair((0,))
    with pytest.raises(TypeError):
        EntanglementReport(0.0, 0.0, (0.0,) * 4, None, None, None)


@pytest.mark.parametrize("kind", sorted(_FIELDS))
def test_records_round_trip_through_pickle_and_deepcopy(kind):
    record = _records()[kind]
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is type(record) and repr(twin) == repr(record)
        with pytest.raises(AttributeError):
            setattr(twin, _FIELDS[kind][0], None)


def test_trusted_builds_a_record_without_checks():
    amps = np.array([1.0, 1.0], dtype=np.complex128)  # not normalized: no check runs
    psi = states._trusted(StateVector, n_qubits=1, amplitudes=amps)
    assert type(psi) is StateVector and psi.amplitudes is amps and not amps.flags.writeable
    assert repr(psi) == f"StateVector(n_qubits=1, amplitudes={amps!r})"
    with pytest.raises(AttributeError):
        psi.n_qubits = 2
