"""One untwist CLI invocation, run the way the `untwist` console script runs
it, in a fresh interpreter.

Usage: child.py FD MODE ARGS...   (MODE is plain, timed or counted)

After the CLI returns, one JSON object goes to file descriptor FD: the
CLOCK_MONOTONIC time at which `import untwist.cli` had finished (the end
of set-up) and, in the timed and counted modes, the tracer's report.
"""
import sys
import time

import untwist.cli as cli

ready = time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    fd, mode, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    tracer = None
    if mode != "plain":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(counting=(mode == "counted"))
    try:
        return cli.run_cli(argv)
    finally:
        import json
        import os
        record = {"ready": ready}
        if tracer is not None:
            record.update(tracer.report())
        os.write(fd, json.dumps(record).encode())
        os.close(fd)


if __name__ == "__main__":
    sys.exit(main())
