"""Scene files: named lattices, cones, fans, systems, maps, morphisms,
points, and weights, loaded from JSON and fully validated.

Integers are serialized as strings so arbitrary precision survives any JSON
parser; rationals are "p/q" strings.  Plain JSON integers are accepted on
input.  Floats are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .cones import Cone
from .fans import Fan, FanSystem, FanViolation, GluingViolation, OrbitIndex
from .intlinalg import IntMatrix, IntVec
from .morphisms import IncompatibleMorphism, ToricMorphism, toric_morphism
from .points import OrbitPoint, TorusElement


class SceneParseError(ValueError):
    """The scene document is malformed (bad JSON or bad shapes)."""


class SceneValidationError(ValueError):
    """An entity fails validation; carries the entity name and the reason."""

    def __init__(self, entity: str, reason: str):
        self.entity = entity
        self.reason = reason
        super().__init__(f"{entity}: {reason}")


def parse_integer(value, context: str = "integer") -> int:
    if isinstance(value, bool) or isinstance(value, float):
        raise SceneParseError(f"{context}: expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise SceneParseError(f"{context}: not an integer: {value!r}") from None
    raise SceneParseError(f"{context}: expected an integer, got {type(value).__name__}")


def parse_rational(value, context: str = "rational") -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise SceneParseError(f"{context}: expected an exact rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SceneParseError(f"{context}: not a rational: {value!r}") from None
    raise SceneParseError(f"{context}: expected a rational, got {type(value).__name__}")


def _int_vector(values, context: str) -> IntVec:
    return tuple(parse_integer(x, context) for x in _list(values, context))


@dataclass
class Scene:
    """A validated collection of named entities."""

    lattices: dict[str, int] = field(default_factory=dict)
    cones: dict[str, Cone] = field(default_factory=dict)
    fans: dict[str, Fan] = field(default_factory=dict)
    systems: dict[str, FanSystem] = field(default_factory=dict)
    maps: dict[str, IntMatrix] = field(default_factory=dict)
    morphisms: dict[str, ToricMorphism] = field(default_factory=dict)
    points: dict[str, OrbitPoint] = field(default_factory=dict)
    weights: dict[str, IntVec] = field(default_factory=dict)

    def space(self, name: str) -> FanSystem:
        if name in self.fans:
            return self.fans[name]
        if name in self.systems:
            return self.systems[name]
        raise SceneValidationError(name, "unknown fan or system")

    def cone(self, name: str) -> Cone:
        if name not in self.cones:
            raise SceneValidationError(name, "unknown cone")
        return self.cones[name]

    def cone_name(self, cone: Cone) -> str | None:
        for name, c in sorted(self.cones.items()):
            if c == cone:
                return name
        return None


def load_scene(source) -> Scene:
    """Load and validate a scene from a path, JSON text, or a dict."""
    if isinstance(source, dict):
        doc = source
    else:
        if isinstance(source, Path) or (
            isinstance(source, str) and not source.lstrip().startswith("{")
        ):
            try:
                text = Path(source).read_text()
            except OSError as exc:
                raise SceneParseError(f"cannot read scene file: {exc}") from None
        else:
            text = source
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SceneParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SceneParseError("scene document must be a JSON object")
    known = {
        "lattices", "cones", "fans", "systems", "maps",
        "morphisms", "points", "weights",
    }
    unknown = set(doc) - known
    if unknown:
        raise SceneParseError(f"unknown scene sections: {sorted(unknown)}")

    scene = Scene()
    for name, rank in _section(doc, "lattices").items():
        r = parse_integer(rank, f"lattice {name}")
        if r < 0:
            raise SceneValidationError(name, "lattice rank must be nonnegative")
        scene.lattices[name] = r

    for name, spec in _section(doc, "cones").items():
        rank = _lattice_rank(scene, _require(spec, "lattice", name), name)
        gens_raw = _list(spec.get("generators", []), f"cone {name}: generators")
        gens = [_int_vector(g, f"cone {name}") for g in gens_raw]
        for g in gens:
            if len(g) != rank:
                raise SceneValidationError(
                    name, f"generator of length {len(g)} in rank {rank}"
                )
        scene.cones[name] = Cone.from_generators(gens, rank)

    for name, spec in _section(doc, "fans").items():
        cone_names = _names(_require(spec, "maximal_cones", name), f"fan {name}: maximal_cones")
        cones = [scene.cone(c) for c in cone_names]
        _check_declared_lattice(scene, spec, name, cone_names, cones)
        try:
            scene.fans[name] = Fan(cones)
        except FanViolation as exc:
            i, j = exc.indices
            raise SceneValidationError(
                name,
                f"cones {cone_names[i]!r} and {cone_names[j]!r} do not intersect in a common face",
            ) from None
        except ValueError as exc:
            raise SceneValidationError(name, str(exc)) from None

    for name, spec in _section(doc, "systems").items():
        if name in scene.fans:
            raise SceneValidationError(name, "name already used by a fan")
        chart_names = _names(_require(spec, "charts", name), f"system {name}: charts")
        charts = [scene.cone(c) for c in chart_names]
        _check_declared_lattice(scene, spec, name, chart_names, charts)
        gluing = {}
        for entry in _list(spec.get("gluing", []), f"system {name}: gluing"):
            pair = entry.get("charts") if isinstance(entry, dict) else None
            if not isinstance(pair, list) or len(pair) != 2:
                raise SceneParseError(f"system {name}: gluing entry needs two charts")
            idx = []
            for ref in pair:
                if isinstance(ref, bool) or not isinstance(ref, (int, str)):
                    raise SceneParseError(
                        f"system {name}: chart reference {ref!r} must be an index or a name"
                    )
                if isinstance(ref, int):
                    if not 0 <= ref < len(charts):
                        raise SceneValidationError(name, f"chart index {ref} out of range")
                    idx.append(ref)
                else:
                    if ref not in chart_names:
                        raise SceneValidationError(name, f"unknown chart {ref!r} in gluing")
                    if chart_names.count(ref) > 1:
                        raise SceneValidationError(
                            name, f"chart name {ref!r} is ambiguous; use indices"
                        )
                    idx.append(chart_names.index(ref))
            face = scene.cone(_ref(entry, "face", f"system {name}"))
            if {(idx[0], idx[1]), (idx[1], idx[0])} & gluing.keys():
                raise SceneValidationError(
                    name, f"charts {min(idx)} and {max(idx)} are glued more than once"
                )
            gluing[(idx[0], idx[1])] = face
        try:
            scene.systems[name] = FanSystem(charts, gluing)
        except GluingViolation as exc:
            raise SceneValidationError(name, str(exc)) from None
        except ValueError as exc:
            raise SceneValidationError(name, str(exc)) from None

    for name, spec in _section(doc, "maps").items():
        dom = _require(spec, "domain", name)
        cod = _require(spec, "codomain", name)
        ncols = _lattice_rank(scene, dom, name)
        nrows = _lattice_rank(scene, cod, name)
        matrix = _list(_require(spec, "matrix", name), f"map {name}: matrix")
        rows = [_int_vector(r, f"map {name}") for r in matrix]
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise SceneValidationError(
                name, f"matrix must be {nrows}x{ncols} for {cod} <- {dom}"
            )
        scene.maps[name] = IntMatrix(rows, ncols)

    for name, spec in _section(doc, "morphisms").items():
        map_name = _ref(spec, "map", f"morphism {name}")
        if map_name not in scene.maps:
            raise SceneValidationError(name, f"unknown map {map_name!r}")
        source = scene.space(_ref(spec, "source", f"morphism {name}"))
        target = scene.space(_ref(spec, "target", f"morphism {name}"))
        try:
            scene.morphisms[name] = toric_morphism(scene.maps[map_name], source, target)
        except IncompatibleMorphism as exc:
            raise SceneValidationError(name, f"incompatible morphism: {exc}") from None
        except ValueError as exc:
            raise SceneValidationError(name, str(exc)) from None

    for name, spec in _section(doc, "points").items():
        space = scene.space(_ref(spec, "space", f"point {name}"))
        orbit_spec = _require(spec, "orbit", name)
        try:
            orbit = _resolve_orbit(scene, space, orbit_spec, name)
            coset_raw = _list(_require(spec, "coset", name), f"point {name}: coset")
            coset = [parse_rational(x, f"point {name}") for x in coset_raw]
            if len(coset) != space.rank:
                raise SceneValidationError(name, "coset length differs from the rank")
            scene.points[name] = OrbitPoint.make(space, orbit, TorusElement(coset))
        except ValueError as exc:
            if isinstance(exc, (SceneValidationError, SceneParseError)):
                raise
            raise SceneValidationError(name, str(exc)) from None

    for name, values in _section(doc, "weights").items():
        scene.weights[name] = _int_vector(values, f"weight {name}")

    return scene


def _resolve_orbit(scene: Scene, sys: FanSystem, spec, entity: str) -> OrbitIndex:
    if isinstance(spec, str):
        return sys.orbit_of_cone(scene.cone(spec))
    if isinstance(spec, dict):
        chart_ref = _require(spec, "chart", entity)
        if isinstance(chart_ref, bool) or not isinstance(chart_ref, (int, str)):
            raise SceneParseError(f"point {entity}: chart must be an index or a cone name")
        face = scene.cone(_ref(spec, "face", f"point {entity}"))
        if isinstance(chart_ref, int):
            chart_id = chart_ref
        else:
            chart_cone = scene.cone(chart_ref)
            matches = [i for i, c in enumerate(sys.charts) if c == chart_cone]
            if len(matches) != 1:
                raise SceneValidationError(
                    entity, f"chart {chart_ref!r} not found uniquely in the system"
                )
            chart_id = matches[0]
        return sys.orbit(chart_id, face)
    raise SceneParseError(f"point {entity}: orbit must be a cone name or a chart/face object")


def _lattice_rank(scene: Scene, lat, entity: str) -> int:
    if not isinstance(lat, str) or lat not in scene.lattices:
        raise SceneValidationError(entity, f"unknown lattice {lat!r}")
    return scene.lattices[lat]


def _check_declared_lattice(scene: Scene, spec: dict, entity: str, names, cones) -> None:
    """A fan's or system's optional ``lattice`` must match its cones' rank."""
    if "lattice" not in spec:
        return
    rank = _lattice_rank(scene, spec["lattice"], entity)
    for cone_name, cone in zip(names, cones):
        if cone.ambient != rank:
            raise SceneValidationError(
                entity,
                f"cone {cone_name!r} has rank {cone.ambient}, "
                f"but lattice {spec['lattice']!r} has rank {rank}",
            )


def _names(value, context: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SceneParseError(f"{context}: expected a list of names")
    return value


def _list(value, context: str) -> list:
    if not isinstance(value, list):
        raise SceneParseError(f"{context}: expected a list")
    return value


def _ref(spec: dict, key: str, entity: str) -> str:
    """A field that names another entity of the scene."""
    value = _require(spec, key, entity)
    if not isinstance(value, str):
        raise SceneParseError(f"{entity}: {key} must be a name, got {value!r}")
    return value


def _section(doc: dict, key: str) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise SceneParseError(f"section {key!r} must be an object")
    return section


def _require(spec: dict, key: str, entity: str):
    if not isinstance(spec, dict) or key not in spec:
        raise SceneParseError(f"{entity}: missing field {key!r}")
    return spec[key]


def builtin_scene() -> Scene:
    from .example import SCENE

    return load_scene(SCENE)
