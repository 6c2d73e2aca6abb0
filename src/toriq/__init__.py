"""toriq: an exact-arithmetic toric-geometry kernel.

Rational polyhedral cones, fans and glued chart systems, toric morphisms
with constructible images, fibers, one-parameter limits, and the
separation-forced identification partition of a non-separated system.
All arithmetic is exact (arbitrary-precision integers and rationals).
"""

from .cones import (
    Cone,
    PointClassification,
    classify_point,
    cone_canonical,
    dual_cone,
    faces,
    image_cone,
    intersect,
    semigroup_generators,
)
from .fans import (
    Fan,
    FanSystem,
    FanViolation,
    GluingViolation,
    OrbitIndex,
    build_fan,
    build_fan_system,
    minimal_cone_containing,
)
from .intlinalg import (
    CosetSolution,
    Inconsistent,
    IntMatrix,
    NoRationalPoint,
    Sublattice,
    hermite_normal_form,
    kernel_saturated,
    smith_normal_form,
    solve_torus_equation,
)
from .morphisms import (
    ConstructibleOrbitSet,
    FiberPiece,
    IncompatibleMorphism,
    ParametricCoset,
    PartialCover,
    ToricMorphism,
    apply_morphism,
    complement_codim,
    fiber_pieces,
    image_constructible,
    one_param_limits,
    orbit_image,
    toric_morphism,
)
from .points import (
    OrbitPoint,
    ToricPoint,
    TorusElement,
    act,
    distinguished_point,
    evaluate_character,
    torus_point,
)
from .scene import Scene, SceneParseError, SceneValidationError, builtin_scene, load_scene
from .separation import (
    CheckResult,
    IdentClass,
    IdentificationPartition,
    VerificationReport,
    comparison_morphism,
    forced_identifications,
    invariance_check,
    partition_matches_fibers,
    project_prevariety,
    verify_example,
)

__version__ = "0.1.0"
