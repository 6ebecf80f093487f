"""Spawn and reap the benchmark's children for the benchmark process.

    python3 -I -S bench/launcher.py

Reads one JSON request per line on standard input,
``{"argv", "stdout", "stderr", "timeout"}``, runs ``argv`` in this process's
environment, and answers one JSON line per request,
``{"seconds", "cpu_seconds", "rss_kib", "code"}``. ``code`` is null when
the child was killed at its timeout. It exits at the end of its input.

Why a process of its own: ``posix_spawn`` shares the spawning process's
memory until the child execs, and Linux counts the peak of that memory in
the child's ``ru_maxrss``. The benchmark process holds inputs and parsed
outputs of tens of MiB.  This one imports only a few standard modules and
runs without ``site`` (``-S``), so its peak, about 10 MiB, is below that of
any child that starts the interpreter with ``site``, and a child's
``ru_maxrss`` is the child's own peak.
"""

import json
import os
import signal
import sys
import time


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def spawn(argv: list, stdout: str, stderr: str, timeout: float) -> dict:
    """Run ``argv`` to completion; its wall time, processor time (user + system), max RSS and exit code."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    reaped = None
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        reaped = os.wait4(pid, 0)
    except _Timeout:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if reaped is None:
        os.kill(pid, signal.SIGKILL)
        reaped = os.wait4(pid, 0)
        code = None
    else:
        code = os.waitstatus_to_exitcode(reaped[1])
    elapsed, usage = time.perf_counter() - start, reaped[2]
    return {
        "seconds": elapsed,
        "cpu_seconds": usage.ru_utime + usage.ru_stime,
        "rss_kib": usage.ru_maxrss,
        "code": code,
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(request["argv"], request["stdout"], request["stderr"], request["timeout"])
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
