"""The benchmark's traced run can still hook the package.

``perfbench/tracer.py`` wraps the functions named in its ``TARGETS`` by
attribute path, so renaming or deleting one of them breaks
``perfbench/run.py --trace 1`` with an ``AttributeError`` even when every
other test passes (``Polynomial.evaluate``, for one, has no caller in the
package itself).  This test installs the tracer and checks that every
target resolves, that each one is wrapped where it is defined, and that
``uninstall`` puts every binding back.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import stably_distinct
import stably_distinct.cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every package module and of its classes."""
    holders = [m for name, m in sys.modules.items()
               if name.startswith("stably_distinct")]
    holders += [v for m in list(holders) for v in vars(m).values()
                if isinstance(v, type) and v.__module__ == m.__name__]
    return {(id(h), attr): value for h in holders
            for attr, value in vars(h).items()}


def _resolve(module_name, path):
    owner = sys.modules[f"stably_distinct.{module_name}"]
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_hooks_every_target_and_restores_it():
    tracer = _load_tracer()
    before = _bindings()
    originals = [_resolve(module, path) for module, path, _ in tracer.TARGETS]
    hooks = tracer.Tracer()
    hooks.install(stably_distinct)
    try:
        assert len(hooks._patched) >= len(tracer.TARGETS)
        for (module, path, _), original in zip(tracer.TARGETS, originals):
            wrapped = _resolve(module, path)
            assert wrapped is not original, path
            assert wrapped.__wrapped__ is original, path
    finally:
        hooks.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_recheck_hook_is_a_cli_attribute():
    # the theorem-recheck workload times the re-check by replacing this
    # module attribute, so cli must keep calling it by this name
    assert stably_distinct.cli.run_schwartz_zippel \
        is stably_distinct.certificate.run_schwartz_zippel
