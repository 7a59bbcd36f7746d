"""Output files: atomic writes, and trajectory.csv formatted on every
usable CPU.

Every file is written to a temporary file in its directory, which replaces
the target only when it is complete, so a failed write leaves the old file.
trajectory.csv is split into contiguous row ranges, one per usable CPU (the
process's affinity, which ``taskset`` restricts): this process formats the
header and the first range, forked workers format the others into ``.part``
files, and the parts are appended in order.  Every range comes from the
same row generator, so the bytes do not depend on the number of workers.
"""

from __future__ import annotations

import os
import signal
import tempfile
from contextlib import contextmanager, suppress
from typing import NoReturn

import numpy as np

from .sim import Scenario

# Rows of trajectory.csv gathered per block.  Larger blocks format no
# faster and raise the peak memory of a run.
CSV_CHUNK_ROWS = 64
# trajectory.csv is formatted by one worker per usable CPU, or by one per
# this many rows begun if that is fewer: a file of no more rows is written
# in-process, where a fork would cost more than it saves.
MIN_ROWS_PER_WORKER = 2000


@contextmanager
def _replacing(path: str):
    """The descriptor of a new temporary file next to ``path``, which
    replaces ``path`` when the block ends and is removed if it raises."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        try:
            yield fd
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_lines(fd: int, lines) -> None:
    with os.fdopen(fd, "w", encoding="utf-8", newline="\n", closefd=False) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def write_atomic(path: str, lines) -> None:
    with _replacing(path) as fd:
        _write_lines(fd, lines)


def trajectory_header(scenario: Scenario) -> list:
    cols = ["t"]
    q = scenario.q
    for i, model in enumerate(scenario.agents, start=1):
        cols += [f"x{i}_{k}" for k in range(1, model.n + 1)]
        cols += [f"y{i}"] if q == 1 else [f"y{i}_{d}" for d in range(1, q + 1)]
        cols += [f"rho{i}"] if q == 1 else [f"rho{i}_{d}" for d in range(1, q + 1)]
        cols += [f"z{i}"] if q == 1 else [f"z{i}_{d}" for d in range(1, q + 1)]
        cols += [f"u{i}_{k}" for k in range(1, model.p + 1)]
        cols += [f"eta_g{i}", f"eta_h{i}"]
    cols += ["r_state", "attack_active"]
    return cols


def _trajectory_rows(scenario: Scenario, traj, start: int, stop: int):
    """Rows ``start`` to ``stop - 1`` of trajectory.csv, without the header.

    The float columns are gathered ``CSV_CHUNK_ROWS`` rows at a time into
    one array, and each row is written as ``repr`` of its cells as Python
    floats, which is what ``cli._fmt`` writes for a float cell.  A row's bytes
    depend on nothing but its own cells, so the ranges of any split join
    into the same file.
    """
    q = scenario.q
    columns = [traj.times[:, None]]  # the float columns in header order
    for i in range(scenario.n_agents):
        s0, s1 = traj.state_slices[i]
        u0, u1 = traj.input_slices[i]
        c0, c1 = i * q, (i + 1) * q
        columns += [traj.x[:, s0:s1], traj.y[:, c0:c1], traj.rho[:, c0:c1],
                    traj.z[:, c0:c1], traj.u[:, u0:u1], traj.eta_g[:, i:i + 1],
                    traj.eta_h[:, i:i + 1]]
    for r0 in range(start, stop, CSV_CHUNK_ROWS):
        r1 = min(r0 + CSV_CHUNK_ROWS, stop)
        block = np.hstack([c[r0:r1] for c in columns])
        r_state = traj.r_state[r0:r1].tolist()
        attack_on = traj.attack_on[r0:r1].tolist()
        for cells, r, attacked in zip(block, r_state, attack_on):
            yield (f"{','.join(map(repr, cells.tolist()))},{int(r)},"
                   f"{'1' if attacked else '0'}")


def trajectory_lines(scenario: Scenario, traj, stop=None):
    """The header and the first ``stop`` rows (all by default) of
    trajectory.csv."""
    yield ",".join(trajectory_header(scenario))
    yield from _trajectory_rows(scenario, traj, 0,
                                len(traj.times) if stop is None else stop)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork workers."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _row_bounds(n_rows: int) -> list:
    """Bounds of the contiguous row ranges of trajectory.csv, one per
    worker: one per ``MIN_ROWS_PER_WORKER`` rows begun, at most one per
    usable CPU."""
    workers = max(1, min(_usable_cpus(), -(-n_rows // MIN_ROWS_PER_WORKER)))
    return [n_rows * k // workers for k in range(workers + 1)]


def _format_part(fd: int, scenario: Scenario, traj, start: int,
                 stop: int) -> NoReturn:
    """Body of a forked worker: write rows ``start`` to ``stop - 1`` to
    ``fd``, then leave through ``os._exit`` (0, or 1 after one line on
    stderr), so that the parent's stdio buffers are not flushed twice and its
    atexit handlers do not run."""
    code = 1
    try:
        _write_lines(fd, _trajectory_rows(scenario, traj, start, stop))
        code = 0
    except BaseException as exc:
        message = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        os.write(2, f"error: trajectory rows {start}-{stop}: {message}\n".encode())
    finally:
        os._exit(code)


def _append_file(dst: int, src: int) -> None:
    """Append all of file ``src`` to ``dst`` in the kernel."""
    size, offset = os.fstat(src).st_size, 0
    while offset < size:
        sent = os.sendfile(dst, src, offset, size - offset)
        if sent == 0:
            raise OSError(f"part file ended at byte {offset} of {size}")
        offset += sent


def write_trajectory(path: str, scenario: Scenario, traj) -> None:
    """Write trajectory.csv, one row range per worker (``_row_bounds``).

    This process writes the header and the first range into the temporary
    file, while forked workers write the other ranges into ``.part`` files
    beside it; the parts are appended in order before the temporary file
    replaces ``path``.  Every range comes from ``_trajectory_rows``, so the
    bytes do not depend on the number of workers.  On any failure every
    worker is killed and reaped, the part files and the temporary file are
    removed and ``path`` keeps its old bytes; a worker that failed raises
    OSError naming its rows.
    """
    bounds = _row_bounds(len(traj.times))
    ranges = list(zip(bounds[1:-1], bounds[2:]))
    directory = os.path.dirname(os.path.abspath(path)) or "."
    parts, workers = [], {}  # (fd, name) per range; pid -> range
    try:
        for _ in ranges:
            parts.append(tempfile.mkstemp(dir=directory, suffix=".part"))
        for (part, _), (start, stop) in zip(parts, ranges):
            pid = os.fork()
            if pid == 0:
                _format_part(part, scenario, traj, start, stop)
            workers[pid] = (start, stop)
        with _replacing(path) as fd:
            _write_lines(fd, trajectory_lines(scenario, traj, bounds[1]))
            for (part, _), pid in zip(parts, list(workers)):
                _, status = os.waitpid(pid, 0)
                start, stop = workers.pop(pid)
                if os.waitstatus_to_exitcode(status) != 0:
                    raise OSError(f"the worker writing trajectory rows "
                                  f"{start}-{stop} of {path} failed")
                _append_file(fd, part)
    finally:
        for pid in workers:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in workers:
            os.waitpid(pid, 0)
        for part, name in parts:
            os.close(part)
            os.unlink(name)
