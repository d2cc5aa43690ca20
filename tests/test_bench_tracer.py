"""The benchmark tracer's wrap table must name functions that exist.

`bench/tracer.py` wraps package functions by dotted path and re-points the
names other modules bound at import (`ALIASES`).  A rename or deletion in
the package would only show up as a crash of `bench/run.py --trace 1`, so
this test reads the tracer's own table and resolves every entry.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import transient_sim

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


tracer = _load_tracer()


def _resolve(dotted: str):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"transient_sim.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("name, path", [(n, p) for n, p, _ in tracer.WRAPPED])
def test_wrapped_path_resolves_to_a_callable(name, path):
    assert callable(_resolve(path)), name


@pytest.mark.parametrize(
    "name, module", [(n, m) for n, mods in tracer.ALIASES.items() for m in mods]
)
def test_alias_is_the_wrapped_function(name, module):
    path = dict((n, p) for n, p, _ in tracer.WRAPPED)[name]
    attr = path.rsplit(".", 1)[1]
    assert getattr(_resolve(module), attr) is _resolve(path)


def test_install_and_uninstall_restore_every_target():
    before = {path: _resolve(path) for _, path, _ in tracer.WRAPPED}
    t = tracer.Tracer(transient_sim)
    t.install()
    try:
        assert all(_resolve(path) is not fn for path, fn in before.items())
    finally:
        t.uninstall()
    assert all(_resolve(path) is fn for path, fn in before.items())


def test_tracer_counts_every_probe():
    # the per-layer attacks.flush_reload metrics need every probe of an
    # attack to go through the module attribute the tracer replaces
    t = tracer.Tracer(transient_sim)
    t.install()
    try:
        results = transient_sim.attacks.run_matrix(
            profiles=("intel_i7",), cells=("v3", "v1-cache-miss-l1")
        )
    finally:
        t.uninstall()
    probes = sum(len(row["intel_i7"].recovered) for row in results.values())
    assert probes == 6
    assert t.calls["attacks.flush_reload"] == probes
