"""``python3 -m bench``: one workload run, or ``suite`` / ``noise`` / ``compare``.

    python3 -m bench --workload W --seed N --seconds S --trace 0|1
    python3 -m bench suite [--runs R] [--seed N] [--out A.json] [--record]
    python3 -m bench noise --sets K [--runs R]
    python3 -m bench compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

#: The environment every measured process runs in.  The allocator is left
#: at its defaults: what it costs to fault NumPy temporaries in and hand
#: them back is part of what a user of the program pays.
PINNED = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Set in the measured process, so that it does not supervise itself.
MEASURED = "BENCH_MEASURED"
#: How long what the measured process leaves behind gets to end by itself
#: (multiprocessing's resource tracker does, once its pipe closes).
REAP_GRACE = 5.0
_PR_SET_CHILD_SUBREAPER = 36


def _descendants() -> list[int]:
    """Live processes whose parent is this one (orphans included)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            state, parent = stat.rsplit(")", 1)[1].split()[:2]
            if int(parent) == me and state != "Z":
                found.append(int(entry))
    return found


def _reap(grace: float) -> None:
    """Wait until every process below this one has ended; after ``grace``
    seconds kill what is left."""
    give_up = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > give_up:
            for pid in _descendants():
                os.kill(pid, signal.SIGKILL)
        time.sleep(0.01)


def _supervise(argv: list[str]) -> int:
    """Run the measurement in a child with the pinned variables holding
    from interpreter start, and return only when that child and every
    process it started (the daemon, pool workers, multiprocessing's
    resource tracker) has ended, whichever way the child ended."""
    import ctypes
    # Orphans of the child are re-parented to this process, not to init.
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    def stop(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, stop)
    env = {**os.environ, **PINNED, MEASURED: "1"}
    child = subprocess.Popen([sys.executable, "-m", "bench", *argv], env=env)
    try:
        return child.wait()
    finally:
        ended = child.poll() is not None
        if not ended:
            child.kill()
            child.wait()
        _reap(REAP_GRACE if ended else 0.0)


def _run(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro").is_dir():
        print("bench: the program's source (src/repro) is not in this "
              "checkout", file=sys.stderr)
        return 2
    if os.environ.get(MEASURED) != "1":
        return _supervise(argv)
    from .runner import run
    from .workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python3 -m bench")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result))
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "suite":
        from .suite import main as command
    elif argv and argv[0] == "noise":
        from .noise import main as command
    elif argv and argv[0] == "compare":
        from .compare import main as command
    else:
        return _run(argv)
    return command(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
