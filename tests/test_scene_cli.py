import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toriq.cli import main, render_text
from toriq.example import SCENE, builtin_scene_json
from toriq.scene import (
    SceneParseError,
    SceneValidationError,
    builtin_scene,
    load_scene,
    parse_integer,
    parse_rational,
)


# ---------------------------------------------------------------------------
# scene loading


def test_builtin_scene_matches_example_objects(ex):
    # the paper's example, written out apart from SCENE: the source cones,
    # the two charts, the lattice map, the weight and the point t235
    scene = builtin_scene()
    assert scene.lattices == {"N4": 4, "N3": 3}
    assert ex.cones["sigma1"].rays == ((0, 1, 0, 0), (1, 0, 0, 0))
    assert ex.cones["sigma2"].rays == ((0, 0, 0, 1), (0, 0, 1, 0))
    assert ex.cones["tau1"].rays == ((0, 1, 0), (1, 0, 0))
    assert ex.cones["tau2"].rays == ((0, 0, 1), (1, 1, 0))
    assert ex.system.charts == (ex.cones["tau1"], ex.cones["tau2"])
    assert ex.lattice_map.rows == ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 0))
    assert ex.weight == (1, 1, 0, -1)
    t235 = scene.points["t235"]
    assert t235.space == ex.system and t235.orbit.cone.dim == 0
    assert t235.coset.coords == (2, 3, 5)


def test_shipped_scene_file_matches_builtin():
    path = Path(__file__).resolve().parent.parent / "scenes" / "example.json"
    assert path.read_text().strip() == builtin_scene_json().strip()
    loaded = load_scene(path)
    assert loaded.systems["Ytilde"] == builtin_scene().systems["Ytilde"]


def test_shipped_punctured_plane_scene(capsys):
    path = Path(__file__).resolve().parent.parent / "scenes" / "punctured-plane.json"
    scene = load_scene(path)
    assert not scene.systems["DoubledLine"].separated
    code, out, _ = run_cli(capsys, "--scene", str(path), "identify", "--system", "DoubledLine")
    assert code == 0
    # duplicated chart cones get chart-qualified labels
    assert "~y_halfline#0 = ~y_halfline#1" in out
    code, out, _ = run_cli(capsys, "--scene", str(path), "verify-example")
    assert code == 0  # verify-example always runs on the built-in data


def test_empty_scene():
    scene = load_scene({})
    assert not scene.cones and not scene.fans and not scene.points


def test_big_integers_survive():
    big = 10**40
    scene = load_scene(
        {
            "lattices": {"N": 1},
            "cones": {"c": {"lattice": "N", "generators": [[str(big)]]}},
            "weights": {"w": [str(-big)]},
        }
    )
    assert scene.cones["c"].rays == ((1,),)  # primitive
    assert scene.weights["w"] == (-big,)


def test_float_rejected():
    with pytest.raises(SceneParseError):
        load_scene({"lattices": {"N": 1}, "weights": {"w": [1.5]}})


def test_rational_parsing():
    assert parse_rational("3/4") == 0.75
    assert parse_rational("-7") == -7
    assert parse_integer("12") == 12
    with pytest.raises(SceneParseError):
        parse_integer("1/2")
    with pytest.raises(SceneParseError):
        parse_rational("abc")


def test_invalid_fan_scene_reports_entity():
    doc = {
        "lattices": {"N": 2},
        "cones": {
            "quad": {"lattice": "N", "generators": [["1", "0"], ["0", "1"]]},
            "diag": {"lattice": "N", "generators": [["1", "1"]]},
        },
        "fans": {"bad": {"lattice": "N", "maximal_cones": ["quad", "diag"]}},
    }
    with pytest.raises(SceneValidationError) as err:
        load_scene(doc)
    assert err.value.entity == "bad"
    assert "face" in err.value.reason


def test_unknown_cone_reference():
    doc = {
        "lattices": {"N": 2},
        "fans": {"f": {"lattice": "N", "maximal_cones": ["missing"]}},
    }
    with pytest.raises(SceneValidationError):
        load_scene(doc)


def test_bad_matrix_shape():
    doc = dict(SCENE)
    doc = json.loads(json.dumps(SCENE))
    doc["maps"]["P"]["matrix"] = [["1", "0"], ["0", "1"]]
    with pytest.raises(SceneValidationError) as err:
        load_scene(doc)
    assert err.value.entity == "P"


def test_malformed_json():
    with pytest.raises(SceneParseError):
        load_scene("{not json")


def test_generator_rank_mismatch():
    doc = {
        "lattices": {"N": 2},
        "cones": {"c": {"lattice": "N", "generators": [["1", "0", "0"]]}},
    }
    with pytest.raises(SceneValidationError):
        load_scene(doc)


def test_fan_and_system_share_namespace():
    doc = {
        "lattices": {"N": 1},
        "cones": {
            "r": {"lattice": "N", "generators": [["1"]]},
            "z": {"lattice": "N", "generators": []},
        },
        "fans": {"X": {"lattice": "N", "maximal_cones": ["r"]}},
        "systems": {"X": {"lattice": "N", "charts": ["r"], "gluing": []}},
    }
    with pytest.raises(SceneValidationError):
        load_scene(doc)


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_verify_example(capsys):
    code, out, _ = run_cli(capsys, "verify-example")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8  # seven checks plus the overall line
    assert all(line.startswith("[PASS]") for line in lines[:7])
    assert lines[-1].startswith("overall: PASS")


def test_cli_verify_example_loads_the_scene_once(capsys, monkeypatch):
    import toriq.scene

    loads = []
    real = toriq.scene.load_scene

    def counting(source):
        loads.append(source)
        return real(source)

    monkeypatch.setattr(toriq.scene, "load_scene", counting)
    code, out, _ = run_cli(capsys, "--format", "json", "verify-example")
    expected = Path(__file__).resolve().parent.parent / "perfbench" / "expected"
    assert code == 0 and len(loads) == 1
    assert out == (expected / "example-verify-example.json").read_text()


def test_cli_limits_two_points(capsys):
    code, out, _ = run_cli(
        capsys, "limits", "--system", "Ytilde", "--v", "1,1,0", "--point", "torus:2,3,5"
    )
    assert code == 0
    assert "2 point(s)" in out
    assert "~y_tau1" in out and "~y_rho4" in out


def test_cli_dual(capsys):
    code, out, _ = run_cli(capsys, "dual", "--cone", "tau1")
    assert code == 0
    assert "(0, 1, 0); (1, 0, 0)" in out
    assert "(0, 0, 1)" in out


def test_cli_fibers(capsys):
    code, out, _ = run_cli(
        capsys, "fibers", "--morphism", "kappa", "--point", "tau1@2,3,5"
    )
    assert code == 0
    assert "2 piece(s)" in out


def test_cli_image_and_codim(capsys):
    code, out, _ = run_cli(capsys, "image", "--morphism", "pi")
    assert code == 0
    assert "complement codimension: 2" in out
    code, out, _ = run_cli(capsys, "codim", "--morphism", "pi")
    assert code == 0 and "2" in out


def test_cli_identify(capsys):
    code, out, _ = run_cli(capsys, "identify", "--system", "Ytilde")
    assert code == 0
    assert "~y_rho4 = ~y_tau1" in out or "~y_tau1 = ~y_rho4" in out


def test_cli_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "--cone", "delta", "--vec", "1,1,0")
    assert code == 0
    assert "on_face" in out


def test_cli_faces(capsys):
    code, out, _ = run_cli(capsys, "faces", "--cone", "delta")
    assert code == 0
    assert "faces of delta: 8" in out


def test_cli_limits_on_fan(capsys):
    code, out, _ = run_cli(
        capsys, "limits", "--fan", "C3", "--v", "1,1,0", "--point", "torus:2,3,5"
    )
    assert code == 0
    assert "1 point(s)" in out and "y_tau1" in out


def test_scene_point_with_chart_qualified_orbit():
    doc = json.loads(json.dumps(SCENE))
    doc["points"]["q"] = {
        "space": "Ytilde",
        "orbit": {"chart": "tau2", "face": "rho4"},
        "coset": ["2", "3", "5"],
    }
    scene = load_scene(doc)
    assert scene.points["q"].orbit.chart == 1


def test_cli_fan_check_valid(capsys):
    code, out, _ = run_cli(capsys, "fan-check", "--cones", "sigma1,sigma2")
    assert code == 0
    assert "valid fan with 7 cones" in out


def test_cli_fan_check_invalid(capsys):
    code, out, _ = run_cli(capsys, "fan-check", "--cones", "tau1,rho4")
    assert code == 1
    assert "not a fan" in out


def test_cli_invariance_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "invariance", "--map", "P", "--weight", "action")
    assert code == 0 and "invariant" in out
    code, out, _ = run_cli(capsys, "invariance", "--map", "P", "--weight", "1,0,0,0")
    assert code == 1 and "NOT invariant" in out


def test_cli_unknown_entity_exit_2(capsys):
    code, _, err = run_cli(capsys, "dual", "--cone", "nonexistent")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, arg, value",
    [
        (["fibers", "--morphism", "kappa", "--point", "tau1@2,3"], "--point", "tau1@2,3"),
        (["limits", "--system", "Ytilde", "--v", "1,1", "--point", "tau1"], "--v", "1,1"),
        (["classify", "--cone", "tau1", "--vec", "1,2"], "--vec", "1,2"),
    ],
    ids=["fibers-point", "limits-v", "classify-vec"],
)
def test_cli_wrong_rank_argument_exit_2(argv, arg, value):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "toriq", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2
    assert f"{arg} {value!r} has rank 2, but the space has rank 3" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_named_point_and_chart_syntax(capsys):
    code, out, _ = run_cli(
        capsys, "limits", "--system", "Ytilde", "--v", "0,0,1", "--point", "tau2/rho4@2,3,5"
    )
    assert code == 0
    assert "~y_tau2" in out


def test_cli_scene_from_file(tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_text(builtin_scene_json())
    code, out, _ = run_cli(capsys, "--scene", str(path), "codim", "--morphism", "pi")
    assert code == 0 and "2" in out


def test_cli_bad_scene_file_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    code, _, err = run_cli(capsys, "--scene", str(path), "verify-example")
    assert code == 2 and "error" in err


def test_cli_json_determinism(capsys):
    args = ["--format", "json", "identify", "--system", "Ytilde"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_text_agrees_with_json(capsys):
    for args in (
        ["limits", "--system", "Ytilde", "--v", "1,1,0", "--point", "torus:2,3,5"],
        ["image", "--morphism", "pi"],
        ["identify", "--system", "Ytilde"],
        ["fibers", "--morphism", "kappa", "--point", "tau1@2,3,5"],
        ["verify-example"],
        ["dual", "--cone", "tau2"],
        ["faces", "--cone", "tau2"],
        ["classify", "--cone", "delta", "--vec", "1,1,0"],
        ["fan-check", "--cones", "sigma1,sigma2"],
        ["codim", "--morphism", "kappa"],
        ["invariance", "--map", "P", "--weight", "action"],
    ):
        _, text_out, _ = run_cli(capsys, *args)
        _, json_out, _ = run_cli(capsys, "--format", "json", *args)
        record = json.loads(json_out)
        assert render_text(record) + "\n" == text_out


def test_cli_verify_example_json_shape(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify-example")
    record = json.loads(out)
    assert code == 0
    assert record["result"]["passed"] is True
    assert len(record["result"]["checks"]) == 7


def _bad_scene(section, entity, field, value):
    doc = json.loads(json.dumps(SCENE))
    doc[section][entity][field] = value
    return doc


@pytest.mark.parametrize(
    "section, entity, field, value",
    [
        ("systems", "Ytilde", "gluing", [5]),
        ("fans", "C3", "maximal_cones", "delta"),
        ("systems", "Ytilde", "gluing", [{"charts": [0, True], "face": "zero3"}]),
        ("points", "t235", "coset", "235"),
        ("cones", "tau1", "generators", 5),
        ("morphisms", "pi", "map", ["P"]),
        ("points", "t235", "space", ["Ytilde"]),
        ("maps", "P", "matrix", 5),
        ("systems", "Ytilde", "gluing", [{"charts": [0, 1], "face": ["zero3"]}]),
    ],
    ids=[
        "gluing-int-entry", "maximal-cones-string", "bool-chart-index", "coset-string",
        "generators-int", "morphism-map-list", "point-space-list", "matrix-int",
        "gluing-face-list",
    ],
)
def test_malformed_scene_fields_exit_2(tmp_path, section, entity, field, value):
    doc = _bad_scene(section, entity, field, value)
    with pytest.raises(SceneParseError, match=entity):
        load_scene(doc)
    proc = _identify_on_scene(tmp_path, doc)
    assert proc.returncode == 2
    assert entity in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("chart", [-1, 2])
def test_scene_point_chart_index_out_of_range_exits_2(tmp_path, chart):
    # Ytilde has charts 0 and 1; index -1 must not wrap to chart 1, which
    # has rho3 as a face
    doc = json.loads(json.dumps(SCENE))
    doc["points"]["q"] = {
        "space": "Ytilde",
        "orbit": {"chart": chart, "face": "rho3"},
        "coset": ["2", "3", "5"],
    }
    message = f"cone is not a face of chart {chart}"
    with pytest.raises(SceneValidationError, match=message):
        load_scene(doc)
    proc = _identify_on_scene(tmp_path, doc)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def _identify_on_scene(tmp_path, doc):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "toriq", "--scene", str(path), "identify", "--system", "Ytilde"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


@pytest.mark.parametrize("section, entity", [("fans", "C3"), ("systems", "Ytilde")])
def test_declared_lattice_must_match_cone_rank(section, entity):
    doc = _bad_scene(section, entity, "lattice", "N4")
    with pytest.raises(SceneValidationError) as err:
        load_scene(doc)
    assert err.value.entity == entity
    assert "rank 3" in err.value.reason and "rank 4" in err.value.reason


@pytest.mark.parametrize(
    "first, second",
    [(("zero3", [0, 1]), ("rho4", [1, 0])), (("rho4", [0, 1]), ("zero3", [0, 1]))],
    ids=["reversed", "repeated"],
)
def test_gluing_a_chart_pair_twice_exits_2(tmp_path, first, second):
    # rho4 is no face of tau1: dropping it (the reversed pair) or letting
    # the later entry overwrite it (the repeated pair) would load the scene
    doc = json.loads(json.dumps(SCENE))
    doc["systems"]["Ytilde"]["gluing"] = [
        {"charts": charts, "face": face} for face, charts in (first, second)
    ]
    message = "Ytilde: charts 0 and 1 are glued more than once"
    with pytest.raises(SceneValidationError, match=message):
        load_scene(doc)
    proc = _identify_on_scene(tmp_path, doc)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["identify", "--system", "C3"], "'C3' is not a system"),
        (["limits", "--system", "C3", "--v", "1,1,0", "--point", "torus:2,3,5"],
         "'C3' is not a system"),
        (["limits", "--fan", "Ytilde", "--v", "1,1,0", "--point", "torus:2,3,5"],
         "'Ytilde' is not a fan"),
    ],
    ids=["identify-fan", "limits-system-fan", "limits-fan-system"],
)
def test_fan_and_system_options_reject_the_other_kind(capsys, argv, message):
    # a fan is a chart system too, but --system names a non-fan system only
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_cli_faces_of_a_cone_with_lineality_exit_2(tmp_path, capsys):
    doc = json.loads(json.dumps(SCENE))
    doc["cones"]["halfspace"] = {
        "lattice": "N3",
        "generators": [["1", "0", "0"], ["0", "1", "0"], ["0", "-1", "0"],
                       ["0", "0", "1"], ["0", "0", "-1"]],
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "--scene", str(path), "faces", "--cone", "halfspace")
    assert code == 2 and out == ""
    assert "face enumeration requires a pointed cone" in err
