"""What the benchmark relies on: its patch points and its requests.

With ``--trace 1`` the benchmark times the program's layers by wrapping
functions and methods it looks up by module path and name.  Moving one
of those names (say ``repro.campaign.runner.ResultCache``) makes a traced
run fail to start; this test makes the move fail tier-1 instead.  The
service workloads send fixed request bodies; a tighter edge that refused
one would turn a benchmark job into a 400, so every body must decode.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_installs_and_uninstalls():
    """The codec wrappers install on the ``repro.fuzz.codec`` re-exports,
    which the fuzzer calls; the service calls :mod:`repro.api.codec`
    directly, so they no longer reach its decodes and encodes (its codec
    time counts under ``service.schema.decode``)."""
    import repro.kodkod.engine as engine
    import repro.service.app as app

    tracing = _load("tracing")
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


def test_every_service_request_body_passes_the_edge():
    from repro.service.schema import decode_submission

    inputs = _load("inputs")
    requests = inputs.service_stream(3) + inputs.drain_backlog(3, 8)
    for request in requests:
        decode_submission(request["body"])
    assert {request["kind"] for request in requests} >= {
        "policy", "protocol", "relational", "delta-narrowed"}
