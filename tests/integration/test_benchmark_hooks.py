"""The benchmark's patch points: every name ``perfbench/tracing.py`` wraps.

With ``--trace 1`` the benchmark times the program's layers by wrapping
functions and methods it looks up by module path and name.  Moving one
of those names (say ``repro.campaign.runner.ResultCache``) makes a traced
run fail to start; this test makes the move fail tier-1 instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_installs_and_uninstalls():
    import repro.kodkod.engine as engine
    import repro.service.app as app

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install_inprocess(tracer)
        tracing.install_hub(tracer)
        tracing.install_satellite(tracer)
        tracing.install_client(tracer)
        # The wrappers must reach what the program calls: the cache class
        # the hub writes through, and the instance extractor bound by
        # name in the engine module.
        assert hasattr(app.ResultCache.put, "__wrapped__")
        assert hasattr(engine.extract_instance, "__wrapped__")
        originals = {}
        for owner, attr, original in tracer._patches:
            # A name wrapped twice records the first wrapper as the second
            # original; the first record holds the real one.
            originals.setdefault((id(owner), attr), (owner, attr, original))
    finally:
        tracer.uninstall()
    assert originals
    for owner, attr, original in originals.values():
        assert getattr(owner, attr) is original, (owner, attr)
