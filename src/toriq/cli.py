"""Command-line workbench.

Loads a scene (or the built-in example), runs one operation, and renders the
result as text or as machine-readable JSON.  Both renderings are produced
from the same record, so they agree on all structural content; identical
scene and command give byte-identical JSON.

Exit codes: 0 success, 1 a verification-style command failed its check,
2 input error (bad scene, unknown entity, malformed arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .cones import Cone
from .fans import Fan, FanViolation
from .intlinalg import IntVec
from .morphisms import (
    ParametricCoset,
    complement_codim,
    fiber_pieces,
    image_constructible,
    one_param_limits,
)
from .points import OrbitPoint, TorusElement, act
from .scene import (
    Scene,
    SceneParseError,
    SceneValidationError,
    builtin_scene,
    load_scene,
    parse_rational,
)
from .separation import forced_identifications, invariance_check, verify_example

class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# serialization helpers (JSON-safe records; all integers as strings)


def _s_int(x: int) -> str:
    return str(int(x))


def _s_vec(v) -> list[str]:
    return [_s_int(x) for x in v]


def _s_rat(x: Fraction) -> str:
    return str(x)


def _s_cone(scene: Scene, c: Cone) -> dict:
    out = {
        "rays": [_s_vec(r) for r in c.rays],
        "lineality": [_s_vec(b) for b in c.lineality.basis],
        "dim": _s_int(c.dim),
    }
    name = scene.cone_name(c)
    if name is not None:
        out["name"] = name
    return out


def _orbit_label(scene: Scene, space, orbit) -> str:
    prefix = "y" if isinstance(space, Fan) else "~y"
    if orbit.cone.dim == 0:
        return prefix + "0"
    name = scene.cone_name(orbit.cone)
    if name is None:
        name = f"cone{list(orbit.cone.rays)}"
    try:
        space.orbit_of_cone(orbit.cone)
    except ValueError:
        # several distinct orbits share this cone; qualify by chart
        return f"{prefix}_{name}#{orbit.chart}"
    return f"{prefix}_{name}"


def _s_orbit(scene: Scene, space, orbit) -> dict:
    return {
        "label": _orbit_label(scene, space, orbit),
        "chart": _s_int(orbit.chart),
        "cone": _s_cone(scene, orbit.cone),
    }


def _s_point(scene: Scene, p: OrbitPoint) -> dict:
    return {
        "orbit": _s_orbit(scene, p.space, p.orbit),
        "coset": [_s_rat(x) for x in p.coset.coords],
    }


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toriq",
        description="Exact toric-geometry workbench: cones, fans, glued chart "
        "systems, morphism images, fibers, limits, and separation-forced "
        "identifications.",
    )
    parser.add_argument(
        "--scene",
        default="example",
        help="path to a scene JSON file, or 'example' for the built-in scene",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="dual cone of a named cone")
    p.add_argument("--cone", required=True)

    p = sub.add_parser("faces", help="all faces of a pointed cone")
    p.add_argument("--cone", required=True)

    p = sub.add_parser("classify", help="locate a lattice vector relative to a cone")
    p.add_argument("--cone", required=True)
    p.add_argument("--vec", required=True, help="comma-separated integers")

    p = sub.add_parser("fan-check", help="check that named cones form a fan")
    p.add_argument("--cones", required=True, help="comma-separated cone names")

    p = sub.add_parser("image", help="constructible image of a morphism onto a fan")
    p.add_argument("--morphism", required=True)

    p = sub.add_parser("fibers", help="fiber of a morphism over a target point")
    p.add_argument("--morphism", required=True)
    p.add_argument("--point", required=True, help="POINT (see README)")

    p = sub.add_parser("limits", help="one-parameter limits of a point")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--system")
    group.add_argument("--fan")
    p.add_argument("--v", required=True, help="comma-separated integers")
    p.add_argument("--point", required=True)

    p = sub.add_parser("identify", help="separation-forced identification classes")
    p.add_argument("--system", required=True)

    p = sub.add_parser("invariance", help="does a lattice map kill a weight vector?")
    p.add_argument("--map", required=True)
    p.add_argument("--weight", required=True, help="weight name or comma-separated integers")

    p = sub.add_parser("codim", help="codimension of the complement of a morphism image")
    p.add_argument("--morphism", required=True)

    sub.add_parser("verify-example", help="run the built-in example verification")
    return parser


def _csv_ints(text: str) -> IntVec:
    try:
        return tuple(int(x.strip(), 10) for x in text.split(","))
    except ValueError:
        raise UsageError(f"not a comma-separated integer vector: {text!r}") from None


def _check_rank(arg: str, text: str, values, rank: int) -> None:
    if len(values) != rank:
        raise UsageError(f"{arg} {text!r} has rank {len(values)}, but the space has rank {rank}")


def _parse_point(scene: Scene, space, text: str) -> OrbitPoint:
    """POINT := NAME (a scene point) | torus:c1,...  | CONE[@c1,...]
    | CHARTCONE/CONE[@c1,...]."""
    if text in scene.points:
        p = scene.points[text]
        if p.space != space:
            raise UsageError(f"point {text!r} lives on a different space")
        return p
    if text.startswith("torus:"):
        coords = [parse_rational(x.strip(), "point") for x in text[6:].split(",")]
        _check_rank("--point", text, coords, space.rank)
        orbit = space.orbit(0, Cone.zero(space.rank))
        return OrbitPoint.make(space, orbit, TorusElement(coords))
    coset = None
    if "@" in text:
        text, _, coset_text = text.partition("@")
        coset = TorusElement(
            [parse_rational(x.strip(), "point") for x in coset_text.split(",")]
        )
        _check_rank("--point", f"{text}@{coset_text}", coset.coords, space.rank)
    if "/" in text:
        chart_name, _, face_name = text.partition("/")
        chart_cone = scene.cone(chart_name)
        matches = [i for i, c in enumerate(space.charts) if c == chart_cone]
        if len(matches) != 1:
            raise UsageError(f"chart {chart_name!r} not found uniquely")
        orbit = space.orbit(matches[0], scene.cone(face_name))
    else:
        orbit = space.orbit_of_cone(scene.cone(text))
    point = OrbitPoint.make(space, orbit, TorusElement.identity(space.rank))
    if coset is not None:
        point = act(coset, point)
    return point


# ---------------------------------------------------------------------------
# commands -> records


def _run(scene: Scene, args) -> tuple[dict, int]:
    cmd = args.command
    if cmd == "dual":
        c = scene.cone(args.cone)
        d = c.dual()
        return {
            "command": cmd,
            "cone": args.cone,
            "result": {
                "rays": [_s_vec(r) for r in d.rays],
                "lineality": [_s_vec(b) for b in d.lineality.basis],
                "facets": [_s_vec(u) for u in d.facet_normals],
            },
        }, 0
    if cmd == "faces":
        c = scene.cone(args.cone)
        return {
            "command": cmd,
            "cone": args.cone,
            "result": {"faces": [_s_cone(scene, f) for f in c.faces()]},
        }, 0
    if cmd == "classify":
        c = scene.cone(args.cone)
        v = _csv_ints(args.vec)
        _check_rank("--vec", args.vec, v, c.ambient)
        loc = c.classify(v)
        result = {"kind": loc.kind}
        if loc.face is not None:
            result["face"] = _s_cone(scene, loc.face)
        return {"command": cmd, "cone": args.cone, "vec": args.vec, "result": result}, 0
    if cmd == "fan-check":
        names = [x.strip() for x in args.cones.split(",")]
        cones = [scene.cone(n) for n in names]
        try:
            fan = Fan(cones)
        except FanViolation as exc:
            i, j = exc.indices
            return {
                "command": cmd,
                "result": {
                    "valid": False,
                    "reason": f"cones {names[i]} and {names[j]} do not intersect in a common face",
                },
            }, 1
        except ValueError as exc:
            return {"command": cmd, "result": {"valid": False, "reason": str(exc)}}, 1
        return {
            "command": cmd,
            "result": {"valid": True, "cones": _s_int(len(fan.all_cones))},
        }, 0
    if cmd == "image":
        m = _morphism(scene, args.morphism)
        img = image_constructible(m)
        codim = complement_codim(img)
        return {
            "command": cmd,
            "morphism": args.morphism,
            "result": {
                "present": [_s_cone(scene, c) for c in img.present],
                "absent": [_s_cone(scene, c) for c in img.absent],
                "complement_codim": "infinity" if codim is None else _s_int(codim),
            },
        }, 0
    if cmd == "fibers":
        m = _morphism(scene, args.morphism)
        y = _parse_point(scene, m.target, args.point)
        pieces = []
        for piece in fiber_pieces(m, y):
            rec = {
                "orbit": _s_orbit(scene, m.source, piece.orbit),
                "subtorus": [_s_vec(b) for b in piece.subtorus.basis],
                "single_point": piece.is_single_point,
            }
            if isinstance(piece.representative, ParametricCoset):
                rec["parametric"] = {
                    "exponents": [_s_vec(r) for r in piece.representative.exponents.rows],
                    "target": [_s_rat(x) for x in piece.representative.target],
                }
            else:
                rec["representative"] = _s_point(scene, piece.representative)
            pieces.append(rec)
        return {
            "command": cmd,
            "morphism": args.morphism,
            "target_point": _s_point(scene, y),
            "result": {"pieces": pieces},
        }, 0
    if cmd == "limits":
        name = args.system or args.fan
        space = scene.space(name)
        if args.system and isinstance(space, Fan):
            raise UsageError(f"{name!r} is not a system")
        if args.fan and not isinstance(space, Fan):
            raise UsageError(f"{name!r} is not a fan")
        v = _csv_ints(args.v)
        _check_rank("--v", args.v, v, space.rank)
        p = _parse_point(scene, space, args.point)
        limits = one_param_limits(space, v, p)
        return {
            "command": cmd,
            "space": name,
            "v": _s_vec(v),
            "result": {"points": [_s_point(scene, q) for q in limits]},
        }, 0
    if cmd == "identify":
        space = scene.space(args.system)
        if isinstance(space, Fan):
            raise UsageError(f"{args.system!r} is not a system")
        part = forced_identifications(space)
        return {
            "command": cmd,
            "system": args.system,
            "result": {
                "separated": space.separated,
                "classes": [
                    {
                        "orbits": [_s_orbit(scene, space, o) for o in cls.orbits],
                        "subtorus": [_s_vec(b) for b in cls.subtorus.basis],
                    }
                    for cls in part.classes
                ],
            },
        }, 0
    if cmd == "invariance":
        if args.map not in scene.maps:
            raise SceneValidationError(args.map, "unknown map")
        pmat = scene.maps[args.map]
        if args.weight in scene.weights:
            w = scene.weights[args.weight]
        else:
            w = _csv_ints(args.weight)
        if len(w) != pmat.ncols:
            raise UsageError("weight length does not match the map's domain rank")
        ok = invariance_check(w, pmat)
        return {
            "command": cmd,
            "map": args.map,
            "weight": _s_vec(w),
            "result": {"invariant": ok},
        }, 0 if ok else 1
    if cmd == "codim":
        m = _morphism(scene, args.morphism)
        codim = complement_codim(image_constructible(m))
        return {
            "command": cmd,
            "morphism": args.morphism,
            "result": {"complement_codim": "infinity" if codim is None else _s_int(codim)},
        }, 0
    if cmd == "verify-example":
        # the check always runs on the built-in example
        report = verify_example(scene if args.scene == "example" else None)
        return {
            "command": cmd,
            "result": {
                "passed": report.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in report.checks
                ],
            },
        }, 0 if report.passed else 1
    raise UsageError(f"unknown command {cmd!r}")


def _morphism(scene: Scene, name: str):
    if name not in scene.morphisms:
        raise SceneValidationError(name, "unknown morphism")
    return scene.morphisms[name]


# ---------------------------------------------------------------------------
# rendering


def render_text(record: dict) -> str:
    """Human-readable rendering, derived from the JSON record only."""
    cmd = record["command"]
    result = record["result"]
    lines: list[str] = []
    if cmd == "dual":
        lines.append(f"dual of {record['cone']}:")
        lines.append("  rays:      " + _fmt_vecs(result["rays"]))
        lines.append("  lineality: " + _fmt_vecs(result["lineality"]))
        lines.append("  facets:    " + _fmt_vecs(result["facets"]))
    elif cmd == "faces":
        lines.append(f"faces of {record['cone']}: {len(result['faces'])}")
        for f in result["faces"]:
            lines.append(f"  dim {f['dim']}: " + _fmt_cone(f))
    elif cmd == "classify":
        lines.append(f"{record['vec']} relative to {record['cone']}: {result['kind']}")
        if "face" in result:
            lines.append("  minimal face: " + _fmt_cone(result["face"]))
    elif cmd == "fan-check":
        if result["valid"]:
            lines.append(f"valid fan with {result['cones']} cones")
        else:
            lines.append("not a fan: " + result["reason"])
    elif cmd == "image":
        lines.append(f"image of {record['morphism']}:")
        lines.append("  present orbits:")
        for c in result["present"]:
            lines.append("    " + _fmt_cone(c))
        lines.append("  absent orbits:")
        for c in result["absent"]:
            lines.append("    " + _fmt_cone(c))
        lines.append(f"  complement codimension: {result['complement_codim']}")
    elif cmd == "fibers":
        tp = record["target_point"]
        lines.append(
            f"fiber of {record['morphism']} over {tp['orbit']['label']} "
            f"@ ({', '.join(tp['coset'])}): {len(result['pieces'])} piece(s)"
        )
        for piece in result["pieces"]:
            tag = "point" if piece["single_point"] else "coset"
            lines.append(
                f"  {tag} on {piece['orbit']['label']}, subtorus "
                + _fmt_vecs(piece["subtorus"])
            )
            if "representative" in piece:
                lines.append(
                    "    representative @ ("
                    + ", ".join(piece["representative"]["coset"])
                    + ")"
                )
            else:
                lines.append("    no rational representative (parametric piece)")
    elif cmd == "limits":
        pts = result["points"]
        lines.append(
            f"limits along ({', '.join(record['v'])}) in {record['space']}: {len(pts)} point(s)"
        )
        for p in pts:
            lines.append(
                f"  {p['orbit']['label']} @ ({', '.join(p['coset'])})"
            )
    elif cmd == "identify":
        lines.append(
            f"identification classes of {record['system']} "
            f"({'separated' if result['separated'] else 'non-separated'}):"
        )
        for cls in result["classes"]:
            labels = " = ".join(o["label"] for o in cls["orbits"])
            lines.append(f"  {labels}  | subtorus " + _fmt_vecs(cls["subtorus"]))
    elif cmd == "invariance":
        verdict = "invariant" if result["invariant"] else "NOT invariant"
        lines.append(
            f"weight ({', '.join(record['weight'])}) under {record['map']}: {verdict}"
        )
    elif cmd == "codim":
        lines.append(
            f"complement codimension of image({record['morphism']}): "
            + str(result["complement_codim"])
        )
    elif cmd == "verify-example":
        for c in result["checks"]:
            mark = "PASS" if c["passed"] else "FAIL"
            lines.append(f"[{mark}] {c['name']}: {c['detail']}")
        lines.append(
            f"overall: {'PASS' if result['passed'] else 'FAIL'} "
            f"({len(result['checks'])} checks)"
        )
    else:
        lines.append(json.dumps(result, sort_keys=True))
    return "\n".join(lines)


def _fmt_vecs(vecs: list[list[str]]) -> str:
    if not vecs:
        return "(none)"
    return "; ".join("(" + ", ".join(v) + ")" for v in vecs)


def _fmt_cone(c: dict) -> str:
    body = _fmt_vecs(c["rays"])
    if c["lineality"]:
        body += " +/- " + _fmt_vecs(c["lineality"])
    if "name" in c:
        return f"{c['name']}: {body}"
    return body


def _colorize(text: str) -> str:
    if os.environ.get("NO_COLOR") is not None or not sys.stdout.isatty():
        return text
    return (
        text.replace("[PASS]", "\x1b[32m[PASS]\x1b[0m")
        .replace("[FAIL]", "\x1b[31m[FAIL]\x1b[0m")
    )


# ---------------------------------------------------------------------------
# entry points


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.scene == "example":
            scene = builtin_scene()
        else:
            scene = load_scene(args.scene)
        record, code = _run(scene, args)
    except (SceneParseError, SceneValidationError, UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(_colorize(render_text(record)))
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
