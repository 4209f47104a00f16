"""One timed lietower CLI request, with the calibration kernel beside it.

    PYTHONPATH=src python3 perfbench/request.py SAMPLES.json CLI-ARGS...

Calls `lietower.cli.main(CLI-ARGS)` and exits with its status; stdout and
stderr are the CLI's own.  The calibration kernel (calib.py) runs in this
process before lietower is imported, after main returns, and every
SAMPLE_PERIOD_S seconds in between from a SIGALRM handler, while the
request waits.  Its times go to SAMPLES.json as a JSON list; run.py
subtracts them from the request's time and scales the rest by them.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import calib

SAMPLE_PERIOD_S = 1.0


def main(argv: list[str]) -> int:
    samples_path, cli_args = Path(argv[0]), argv[1:]
    samples = [calib.timed_kernel()]
    signal.signal(signal.SIGALRM, lambda *_: samples.append(calib.timed_kernel()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        from lietower.cli import main as cli_main

        return cli_main(cli_args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        samples.append(calib.timed_kernel())
        samples_path.write_text(json.dumps(samples))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
