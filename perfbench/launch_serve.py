"""Run the ``serve`` CLI with the per-layer spans installed.

Traced ``gateway-stream`` runs start the server through this launcher
instead of ``python -m repro.harness``: it installs the same wrappers the
simulated workloads use, then hands the remaining arguments to the
harness CLI, which builds the session, pacer and ``Gateway``.  When the
CLI returns (after SIGTERM and its drain), the per-layer figures are
written as JSON to the ``--dump`` path.

Usage::

    python perfbench/launch_serve.py --dump layers.json -- serve --realtime ...
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import simulator_layers  # noqa: E402
from tracer import ClusterLog, Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--dump" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    dump_path, cli_args = argv[1], argv[3:]
    tracer = Tracer()
    install(tracer)
    log = ClusterLog()
    log.install()
    from repro.harness.__main__ import main as cli_main

    status = cli_main(cli_args)
    layers = simulator_layers(tracer, log.clusters, [])
    layers["serve.pacer.poll.total_s"] = tracer.total_s("serve.pacer.poll")
    with open(dump_path, "w", encoding="utf-8") as fh:
        json.dump(layers, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
