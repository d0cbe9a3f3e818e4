"""Parallel sweep solves: forked workers that claim points from a locked claim file.

Only a parallel sweep imports this module, so that run, compare and serial
sweeps neither load nor compile it, nor fcntl and signal.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import signal
from functools import partial
from typing import Callable, Iterable, Optional


def claim_file(order: list[int]) -> int:
    """A memory file holding order at 4 bytes a point, read from its start; the caller closes it."""
    claims = os.memfd_create("fastgrad-sweep-claims")
    os.write(claims, b"".join(index.to_bytes(4, "little") for index in order))
    os.lseek(claims, 0, os.SEEK_SET)
    return claims


def take(claims: int) -> Optional[int]:
    """The next point from a claim file the sweep's processes share; None once all are taken.

    Forked processes share the file's offset. The record lock makes each read
    hand out its entry once, and the kernel drops it if its holder dies."""
    fcntl.lockf(claims, fcntl.LOCK_EX)
    try:
        entry = os.read(claims, 4)
    finally:
        fcntl.lockf(claims, fcntl.LOCK_UN)
    return int.from_bytes(entry, "little") if entry else None


def _fork_claimer(solve: Callable[[Iterable[int]], tuple], claims: int):
    """Fork a process that solves the points it claims and pickles the outcome into a pipe.

    Returns the child's pid and the pipe's read end. The child always leaves
    through os._exit: 0 once its outcome is sent, 1 if anything failed."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            sent = pickle.dumps(solve(iter(partial(take, claims), None)))
            with open(write_end, "wb") as pipe:
                pipe.write(sent)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def solve_claimed(solve: Callable[[Iterable[int]], tuple], order: list[int], workers: int) -> list[tuple]:
    """The outcomes of solve over the indices this process and workers - 1 forked ones claim from order.

    A worker that dies or sends no outcome raises RuntimeError. On any
    exception, one raised by a signal handler too, no worker is left running."""
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    claims = claim_file(order)
    try:
        for _ in range(workers - 1):
            children.append(_fork_claimer(solve, claims))
        outcomes = [solve(iter(partial(take, claims), None))]
        while children:
            pid, pipe = children[-1]
            with pipe:
                sent = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop()
            if code or not sent:
                raise RuntimeError(f"sweep worker {pid} ended with exit code {code} before sending its outcome")
            outcomes.append(pickle.loads(sent))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(claims)
    return outcomes
