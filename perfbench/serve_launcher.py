"""Run ``repro serve`` with the benchmark's timers installed.

Usage: ``python3 perfbench/serve_launcher.py MODE OUT serve --db ...``

``MODE`` is ``trace`` (the layer spans and counters of
:func:`benchtrace.install`) or ``stages`` (the
:class:`benchtrace.StageTimer` record).  The arguments after ``OUT`` go to
``repro.experiments.cli.main`` unchanged.  SIGTERM stops the server the way
Ctrl-C does; what was recorded is then written to ``OUT`` as JSON.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import benchtrace  # noqa: E402  (after the program is importable)


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    mode, out, cli_args = argv[0], Path(argv[1]), argv[2:]
    if mode == "trace":
        recorder = benchtrace.Recorder()
        uninstall = benchtrace.install(recorder)
    elif mode == "stages":
        timer = benchtrace.StageTimer()
        uninstall = timer.install()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    signal.signal(signal.SIGTERM, _interrupt)
    from repro.experiments.cli import main as cli_main

    start = time.perf_counter()
    try:
        return cli_main(cli_args)
    finally:
        uninstall()
        if mode == "trace":
            dump = benchtrace.export(recorder)
            dump["wall"] = [start, time.perf_counter()]
        else:
            dump = timer.take()
        out.write_text(json.dumps(dump))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
