"""Workload process: sets srings up, runs one timed pass, sends outcomes.

run.py starts it in a fresh interpreter, one process at a time:

    python3 perfbench/worker.py --setup
    python3 perfbench/worker.py <workload> <seed> <trace 0|1>

It writes one JSON object per line to stdout.  A pass sends every request
of the workload through ``srings.cli.main(argv)`` with stdout and stderr
captured, one request at a time; each request builds its own ring.  Each
request's outcome is sent as soon as its timing ends and is not kept, so
the process's peak RSS is that of srings.  With trace 0 a
``speed.SpeedProbe`` samples host speed while each request runs; the
requests' times leave its kernel runs out, and run.py scales the pass time by the
speed the samples show.  With trace 1 the pass runs under
``trace.Recorder`` instead.  run.py checks the outcomes.

Set-up is timed first, before anything else is imported: the modules srings
needs (json, dataclasses, ...) would otherwise already be loaded, and their
import cost would be missing from setup_s.
"""

import sys
from time import perf_counter


def set_up():
    """Import srings and read the builtin ledger text, as the CLI does."""
    start = perf_counter()
    import srings.cli

    srings.cli.builtin_ledger_text()
    return perf_counter() - start, srings.cli


def main(argv):
    setup_s, cli = set_up()
    import contextlib
    import io
    import json

    def emit(obj):
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    if argv == ["--setup"]:
        emit({"setup_s": setup_s})
        return 0

    import platform
    import resource
    import statistics

    import numpy

    from perfbench.speed import SpeedProbe
    from perfbench.trace import Recorder
    from perfbench.workloads import requests

    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    emit({"setup_s": setup_s, "python": platform.python_version(), "numpy": numpy.__version__})
    recorder = Recorder() if trace else None
    if recorder is not None:
        recorder.install()  # this process ends after the pass, so it is never undone
    probe = SpeedProbe() if recorder is None else None
    sampling = probe if probe is not None else contextlib.nullcontext()
    wall = 0.0
    for req in requests(workload, seed):
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        taken = len(probe.samples) if probe is not None else 0
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), sampling:
                rc = cli.main(list(req.argv))
        except Exception as e:  # a request that raises counts as failed, the pass goes on
            error = f"{type(e).__name__}: {e}"
        wall += perf_counter() - start
        if probe is not None:
            wall -= sum(probe.samples[taken:])  # the probe's own runs are not srings' time
        if recorder is not None:
            recorder.end_request()
        emit({"outcome": [rc, out.getvalue(), error]})
    if probe is not None:
        probe.close()
    emit({
        "wall_s": wall,
        "ref_s": statistics.median(probe.samples) if probe is not None else None,
        "ref_samples": len(probe.samples) if probe is not None else 0,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "recorder": recorder.summary(wall, recorder.span_cost_s()) if recorder is not None else None,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
