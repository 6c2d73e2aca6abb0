"""The benchmark's own tests: python3 -m pytest -q perfbench"""

import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402


def test_tail_needs_ten_samples_beyond():
    assert run.tail([0.001] * 99) is None
    name, _, beyond = run.tail([float(i) for i in range(100)])
    assert (name, beyond) == ("p90", 10)
    name, value, beyond = run.tail([float(i) for i in range(1000)])
    assert (name, value, beyond) == ("p99", 989.0, 10)


def test_tracer_patches_every_alias_and_restores():
    import toriq
    from toriq import morphisms, separation

    original = morphisms.orbit_limit_targets
    modules = {name: import_module(f"toriq.{name}") for name in tracer.LAYERS}
    t = tracer.Tracer(modules, namespaces=[toriq])
    t.install()
    try:
        assert separation.orbit_limit_targets is morphisms.orbit_limit_targets
        assert morphisms.orbit_limit_targets.__wrapped__ is original
        assert toriq.Cone.from_generators.__wrapped__ is not None
        toriq.Cone.from_generators([(1, 0), (0, 1)], 2)
    finally:
        t.uninstall()
    assert separation.orbit_limit_targets is original
    assert not hasattr(toriq.Cone.from_generators, "__wrapped__")
    summary = t.summary()
    assert summary["cones.Cone.from_generators"]["calls"] == 1
    assert t.builds == 1


def test_smoke_mode_is_correct_and_counts_repeat():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900, check=False,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
