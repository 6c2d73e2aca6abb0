"""The built-in worked example: a torus quotient with a non-separated
intermediate space.

The source is the fan in Z^4 with maximal cones spanned by {e1, e2} and
{e3, e4}.  The lattice map sends e1, e2, e3 to themselves and e4 to e1 + e2;
it kills the weight vector (1, 1, 0, -1), so the induced morphism is
invariant under the one-parameter action with that weight.  The images of
the two maximal cones, glued along the torus only, form a non-separated
system over Z^3 whose comparison morphism to affine 3-space realizes the
quotient structure that the verification pipeline checks.
"""

from __future__ import annotations

import json

from .cones import Cone
from .fans import Fan, FanSystem
from .frozen import Frozen
from .intlinalg import IntMatrix, IntVec, Sublattice
from .morphisms import ToricMorphism
from .scene import Scene, builtin_scene


class ExampleData(Frozen):
    _fields = (
        "lattice_map", "weight", "source_fan", "target_fan", "system", "pi", "pi_tilde",
        "kappa", "cones", "expected_present", "expected_absent", "expected_partition",
        "limit_vector",
    )

    def __init__(
        self, lattice_map: IntMatrix, weight: IntVec, source_fan: Fan, target_fan: Fan,
        system: FanSystem, pi: ToricMorphism, pi_tilde: ToricMorphism, kappa: ToricMorphism,
        cones: dict, expected_present: tuple[Cone, ...], expected_absent: tuple[Cone, ...],
        expected_partition: tuple, limit_vector: IntVec,
    ):
        object.__setattr__(self, "lattice_map", lattice_map)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "source_fan", source_fan)
        object.__setattr__(self, "target_fan", target_fan)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "pi_tilde", pi_tilde)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "cones", cones)
        object.__setattr__(self, "expected_present", expected_present)
        object.__setattr__(self, "expected_absent", expected_absent)
        object.__setattr__(self, "expected_partition", expected_partition)
        object.__setattr__(self, "limit_vector", limit_vector)


def build_example(scene: Scene | None = None) -> ExampleData:
    """The objects of ``SCENE`` and the results the verification expects;
    ``scene`` is ``SCENE`` already loaded, if the caller has it."""
    scene = builtin_scene() if scene is None else scene
    cones = scene.cones
    e1, e2, e3 = IntMatrix.identity(3).rows

    def sig(members, basis_rows):
        return (
            tuple(sorted((chart, cones[name].rays) for chart, name in members)),
            Sublattice.from_rows(3, basis_rows).basis,
        )

    expected_partition = tuple(
        sorted(
            [
                sig([(0, "zero3")], []),
                sig([(0, "rho1")], [e1]),
                sig([(0, "rho2")], [e2]),
                sig([(1, "rho3")], [e3]),
                sig([(0, "tau1"), (1, "rho4")], [e1, e2]),
                sig([(1, "tau2")], [e1, e2, e3]),
            ]
        )
    )

    return ExampleData(
        lattice_map=scene.maps["P"],
        weight=scene.weights["action"],
        source_fan=scene.fans["Delta"],
        target_fan=scene.fans["C3"],
        system=scene.systems["Ytilde"],
        pi=scene.morphisms["pi"],
        pi_tilde=scene.morphisms["pitilde"],
        kappa=scene.morphisms["kappa"],
        cones=cones,
        expected_present=tuple(
            cones[n] for n in ("zero3", "rho1", "rho2", "rho3", "tau1", "delta")
        ),
        expected_absent=(
            Cone.from_generators([e1, e3], 3),
            Cone.from_generators([e2, e3], 3),
        ),
        expected_partition=expected_partition,
        limit_vector=(1, 1, 0),
    )


# The example as a scene document: the CLI's built-in scene and the one
# source of ``build_example``; ``scenes/example.json`` is its export.
SCENE: dict = {
    "lattices": {"N4": 4, "N3": 3},
    "cones": {
        "sigma1": {"lattice": "N4", "generators": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]},
        "sigma2": {"lattice": "N4", "generators": [["0", "0", "1", "0"], ["0", "0", "0", "1"]]},
        "zero4": {"lattice": "N4", "generators": []},
        "tau1": {"lattice": "N3", "generators": [["1", "0", "0"], ["0", "1", "0"]]},
        "tau2": {"lattice": "N3", "generators": [["0", "0", "1"], ["1", "1", "0"]]},
        "rho1": {"lattice": "N3", "generators": [["1", "0", "0"]]},
        "rho2": {"lattice": "N3", "generators": [["0", "1", "0"]]},
        "rho3": {"lattice": "N3", "generators": [["0", "0", "1"]]},
        "rho4": {"lattice": "N3", "generators": [["1", "1", "0"]]},
        "delta": {
            "lattice": "N3",
            "generators": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        },
        "zero3": {"lattice": "N3", "generators": []},
    },
    "fans": {
        "Delta": {"lattice": "N4", "maximal_cones": ["sigma1", "sigma2"]},
        "C3": {"lattice": "N3", "maximal_cones": ["delta"]},
    },
    "systems": {
        "Ytilde": {
            "lattice": "N3",
            "charts": ["tau1", "tau2"],
            "gluing": [{"charts": [0, 1], "face": "zero3"}],
        }
    },
    "maps": {
        "P": {
            "domain": "N4",
            "codomain": "N3",
            "matrix": [
                ["1", "0", "0", "1"],
                ["0", "1", "0", "1"],
                ["0", "0", "1", "0"],
            ],
        },
        "id3": {
            "domain": "N3",
            "codomain": "N3",
            "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        },
    },
    "morphisms": {
        "pi": {"map": "P", "source": "Delta", "target": "C3"},
        "pitilde": {"map": "P", "source": "Delta", "target": "Ytilde"},
        "kappa": {"map": "id3", "source": "Ytilde", "target": "C3"},
    },
    "points": {
        "t235": {"space": "Ytilde", "orbit": "zero3", "coset": ["2", "3", "5"]}
    },
    "weights": {"action": ["1", "1", "0", "-1"]},
}


def builtin_scene_json() -> str:
    return json.dumps(SCENE, indent=2, sort_keys=True)
