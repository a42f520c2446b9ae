"""Run ``folnerlab.cli.main`` on argvs read from stdin, in this one process.

    python cli_child.py MEMORY_BYTES SECONDS

Each stdin line is an argv as a JSON list.  Each answer is one JSON line
on stdout: ``code`` (what ``main`` returned), ``err`` (what it wrote to
stderr) and ``escaped`` (the traceback of anything that left ``main``, or
a note that it ran past SECONDS, else null).  The address space of this
process is capped at MEMORY_BYTES before folnerlab is imported, so a run
that grows without bound ends in a ``MemoryError`` here, not elsewhere.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import traceback


class Overtime(BaseException):
    """An argv ran past its alarm."""


def _overtime(signum, frame):
    raise Overtime


def serve(memory: int, seconds: int) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
    signal.signal(signal.SIGALRM, _overtime)
    from folnerlab.cli import main

    answers = sys.stdout
    for line in sys.stdin:
        err = io.StringIO()
        code = escaped = None
        try:
            signal.alarm(seconds)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(json.loads(line))
            signal.alarm(0)
        except Overtime:
            escaped = f"no exit within {seconds} s"
        except BaseException:
            signal.alarm(0)
            escaped = traceback.format_exc()
        answers.write(json.dumps({"code": code, "err": err.getvalue(), "escaped": escaped}) + "\n")
        answers.flush()


if __name__ == "__main__":
    serve(int(sys.argv[1]), int(sys.argv[2]))
