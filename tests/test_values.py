"""Value semantics of the library's immutable classes, and what importing
the CLI loads."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from toriq.cones import Cone, PointClassification
from toriq.example import build_example
from toriq.fans import Fan, FanSystem, OrbitIndex
from toriq.intlinalg import CosetSolution, Inconsistent, IntMatrix, NoRationalPoint, Sublattice
from toriq.morphisms import ConstructibleOrbitSet, FiberPiece, ParametricCoset
from toriq.points import OrbitPoint, ToricPoint, TorusElement
from toriq.scene import Scene
from toriq.separation import (
    CheckResult,
    IdentClass,
    IdentificationPartition,
    MergeEvent,
    VerificationReport,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# Every factory builds new objects on each call, down to the fields where
# the library allows it, so two calls give two distinct, equal values.  No
# value is built at import: a cone or lattice kept alive here would answer
# memo lookups that other tests count.


def _chart():
    return Cone.from_generators([(1, 0, 0), (0, 1, 0)], 3)


def _cone():
    # the constructor bypasses the memo that from_generators reads
    c = _chart()
    return Cone(c.ambient, c.rays, c.lineality, c.facet_normals, c.span_perp)


def _lattice():
    return Sublattice.from_rows(3, [(1, 0, 0), (0, 1, 0)])


def _orbit():
    return OrbitIndex(0, _cone())


def _torus():
    return TorusElement((2, Fraction(1, 3), 5))


def _orbit_point():
    return OrbitPoint(FanSystem([_chart()]), _orbit(), _torus())


# classes whose instances compare (and hash) by their fields or a key
COMPARED = {
    "IntMatrix": lambda: IntMatrix([[1, 2, 0], [3, 4, 0]]),
    "Sublattice": _lattice,
    "Cone": _cone,
    "PointClassification": lambda: PointClassification.on_face(_cone()),
    "OrbitIndex": _orbit,
    "TorusElement": _torus,
    "OrbitPoint": _orbit_point,
    "ToricPoint": lambda: ToricPoint.from_orbit(_chart(), _cone(), _torus()),
    "ParametricCoset": lambda: ParametricCoset(
        _orbit(), IntMatrix([[2, 0, 0]]), (Fraction(2),), _lattice()
    ),
    "FiberPiece": lambda: FiberPiece(_orbit(), _lattice(), _orbit_point()),
    "MergeEvent": lambda: MergeEvent((1, 1, 0), (_orbit(),), (_orbit(),)),
    "IdentClass": lambda: IdentClass((_orbit(),), _lattice()),
}

FROZEN = {
    **COMPARED,
    "CosetSolution": lambda: CosetSolution((Fraction(2),), Sublattice.zero(1)),
    "NoRationalPoint": lambda: NoRationalPoint(
        Sublattice.zero(1), IntMatrix([[2]]), (Fraction(2),)
    ),
    "Inconsistent": lambda: Inconsistent("equation 1 = 2 after reduction"),
    "ConstructibleOrbitSet": lambda: ConstructibleOrbitSet(Fan([_chart()]), (_cone(),), ()),
    "IdentificationPartition": lambda: IdentificationPartition(FanSystem([_chart()]), (), ()),
    "CheckResult": lambda: CheckResult("invariance", True, "weight is killed"),
    "VerificationReport": lambda: VerificationReport(()),
    "ExampleData": build_example,
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_value_is_immutable(name):
    value = FROZEN[name]()
    assert type(value).__name__ == name
    field, before = next(iter(vars(value).items()))
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        setattr(value, "extra", None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before and not hasattr(value, "extra")


@pytest.mark.parametrize("name", sorted(COMPARED))
def test_equal_values_compare_and_hash_equal(name):
    a, b = COMPARED[name](), COMPARED[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_cached_property_on_a_frozen_value():
    lattice = Sublattice.from_rows(3, [(1, 0, 0)])
    assert lattice.quotient_matrix() is not None
    assert "_quotient_data" in vars(lattice)
    with pytest.raises(AttributeError):
        lattice._quotient_data = None


def test_value_repr_names_its_fields():
    assert repr(Sublattice.from_rows(2, [(2, 0)])) == "Sublattice(ambient=2, basis=((2, 0),))"
    assert repr(OrbitIndex(0, Cone.zero(1))) == "OrbitIndex(chart=0, cone=Cone(1; rays=[]))"
    assert repr(Inconsistent("no")) == "Inconsistent(reason='no')"


def test_scenes_share_no_dict():
    a, b = Scene(), Scene()
    assert set(vars(a)) == {
        "lattices", "cones", "fans", "systems", "maps", "morphisms", "points", "weights",
    }
    for name, value in vars(a).items():
        assert value == {} and value is not getattr(b, name)
    a.cones["c"] = _chart()
    assert b.cones == {}


def test_cli_import_loads_no_dataclasses_or_inspect():
    # -S keeps the .pth hooks of the interpreter's site-packages, which may
    # import modules of their own, out of the import set
    code = "import sys, toriq.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
