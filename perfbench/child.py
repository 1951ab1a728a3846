"""One repetition in a fresh interpreter.

Usage: python3 perfbench/child.py ROOT JOB

Imports roofcalc.cli from ROOT/src first, so that the parent can take the
set-up time from its own clock reading before the spawn to the
`imported` reading here (both are CLOCK_MONOTONIC).  JOB is JSON:
{"argv": [...] or null, "trace": bool, "spans": path or null}.  With an
argv, runs `roofcalc.cli.main(argv)` once after a full collection, with
stdout captured, and prints one JSON record on its last line.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(sys.argv[1], "src"))
import roofcalc.cli  # noqa: E402

IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def main() -> None:
    job = json.loads(sys.argv[2])
    record = {"imported": IMPORTED}
    if job["argv"] is not None:
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        captured = io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(captured):
            start = time.perf_counter()
            code = roofcalc.cli.main(job["argv"])
            end = time.perf_counter()
        record.update(
            wall_s=end - start,
            exit_code=code,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            stdout=captured.getvalue(),
        )
        if tracer is not None:
            record["layers"] = tracer.metrics()
            if job["spans"]:
                tracer.write_spans(job["spans"])
    print(json.dumps(record))


if __name__ == "__main__":
    main()
