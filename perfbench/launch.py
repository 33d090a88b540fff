"""Start a traced hub or satellite: wrappers first, then the service CLI.

    python3 perfbench/launch.py {hub|satellite} TRACE_OUT -- SERVICE_ARGS...

installs the layer wrappers of :mod:`tracing` for the role, runs
``repro.service.__main__.main(SERVICE_ARGS)`` exactly as ``python -m
repro.service`` would, and after the CLI returns (SIGINT stops both
roles cleanly) writes the spans to ``TRACE_OUT``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--" or argv[0] not in ("hub",
                                                           "satellite"):
        print(__doc__, file=sys.stderr)
        return 2
    role, trace_out, service_args = argv[0], argv[1], argv[3:]
    tracer = tracing.Tracer()
    if role == "hub":
        tracing.install_hub(tracer)
    else:
        tracing.install_satellite(tracer)
    from repro.service.__main__ import main as service_main

    try:
        return service_main(service_args)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
