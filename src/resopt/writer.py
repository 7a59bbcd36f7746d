"""Output files: atomic writes, and trajectory.csv formatted by orjson with
the bytes of ``repr``.

Every file is written to a temporary file in its directory, which replaces
the target only when it is complete, so a failed write leaves the old file.
The temporary file is given the mode a new file gets under the umask
(``0o666 & ~umask``), not the 0600 of ``tempfile.mkstemp``.

trajectory.csv is assembled ``CSV_CHUNK_ROWS`` rows at a time.  A block's
float cells are gathered by one ``hstack`` of the eight Trajectory arrays
and one ``take`` through the column order of ``trajectory_columns``, which
leaves the block C-contiguous, and formatted by one ``orjson.dumps`` call.
Each row's ``,r_state,attack_active`` cells come from a table indexed by
the (graph, attack) pair, and the block's rows are joined into one string,
written by one call.

Like ``repr``, orjson writes the shortest digits that read back to the
same float64, the nearest such (a Ryu-style encoder; Adams, PLDI 2018), so
the two differ only in layout, and one rule splices ``repr`` in: each cell
with 1e-9 <= |x| < 1e-4, |x| >= 1e16 or a non-finite value goes to orjson
as nan, and the k-th ``null`` of a block becomes ``repr`` of the block's
k-th such cell in row-major order.  The rule is exact:

- from 1e16 up orjson writes ``1e16``, ``repr`` ``1e+16``;
- below 1e-4 ``repr`` writes ``1.5e-05``, a signed exponent of at least
  two digits; orjson writes ``0.000015`` down to 1e-5, then ``1.5e-6``;
- orjson writes nan, inf and -inf as ``null``;
- elsewhere the two agree: on the zeros, on [1e-4, 1e16), and below 1e-9,
  where the exponent has two or three digits.

The thresholds compare as floats: a float's shortest digits are below 10^k
exactly when it is below the float nearest 10^k.  The tests check the rule
on random bit patterns, every power of ten and its neighbours, and densely
over [1e-9, 1e-4).
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from itertools import chain

import numpy as np
import orjson

from .sim import Scenario

# Rows of trajectory.csv gathered per block.  Larger blocks format no
# faster and raise the peak memory of a run.
CSV_CHUNK_ROWS = 64


@contextmanager
def _replacing(path: str):
    """The descriptor of a new temporary file next to ``path``, which
    replaces ``path`` when the block ends, with the mode the umask gives a
    new file, and is removed if the block raises."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        try:
            yield fd
            umask = os.umask(0)  # reading the umask means setting it
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path: str, lines) -> None:
    with _replacing(path) as fd, \
            os.fdopen(fd, "w", encoding="utf-8", newline="\n",
                      closefd=False) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def trajectory_columns(scenario: Scenario) -> tuple:
    """The header of trajectory.csv, and the index of each float column in
    a row of the eight Trajectory arrays (t, x, y, rho, z, u, eta_g, eta_h)
    side by side, found in one walk over the agents."""
    agents, q = scenario.agents, scenario.q
    nq = len(agents) * q
    # Agent i's first x, y and u columns and its eta_g column.  Its rho, z
    # and eta_h columns lie nq, 2 nq and N columns after its y and eta_g.
    x, y = 1, 1 + sum(m.n for m in agents)
    u = y + 3 * nq
    eta = u + sum(m.p for m in agents)
    suffixes = [""] if q == 1 else [f"_{d}" for d in range(1, q + 1)]
    columns = [("t", 0)]
    for i, m in enumerate(agents, start=1):
        columns += [(f"x{i}_{k + 1}", x + k) for k in range(m.n)]
        columns += [(f"{name}{i}{s}", y + offset + d) for offset, name in
                    ((0, "y"), (nq, "rho"), (2 * nq, "z"))
                    for d, s in enumerate(suffixes)]
        columns += [(f"u{i}_{k + 1}", u + k) for k in range(m.p)]
        columns += [(f"eta_g{i}", eta), (f"eta_h{i}", eta + len(agents))]
        x, y, u, eta = x + m.n, y + q, u + m.p, eta + 1
    header, order = zip(*columns)
    return [*header, "r_state", "attack_active"], np.array(order)


def _repr_rows(block: np.ndarray) -> list:
    """Each row of the float64 ``block`` as the ``repr`` of its cells joined
    by commas."""
    magnitude = np.abs(block)
    spliced = ~((magnitude < 1e-9) | ((magnitude >= 1e-4) & (magnitude < 1e16)))
    cells = block[spliced].tolist()
    if cells:
        block = np.where(spliced, np.nan, block)
    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    if cells:
        pieces = text.split("null")
        text = "".join(chain.from_iterable(zip(pieces, map(repr, cells))))\
            + pieces[-1]
    return text[2:-2].split("],[")


def trajectory_lines(scenario: Scenario, traj):
    """trajectory.csv in pieces that ``write_atomic`` ends with a newline:
    the header, then each block of ``CSV_CHUNK_ROWS`` rows as one string,
    its rows joined by newlines.  Each float cell is written as ``repr``
    writes it (``_repr_rows``), which is what ``cli._fmt`` writes for a
    float cell."""
    header, order = trajectory_columns(scenario)
    yield ",".join(header)
    arrays = (traj.times[:, None], traj.x, traj.y, traj.rho, traj.z, traj.u,
              traj.eta_g, traj.eta_h)
    tails = [f",{r},{attacked}"
             for r in range(len(scenario.graph_process.graphs)) for attacked in (0, 1)]
    pair = 2 * traj.r_state + traj.attack_on
    for r0 in range(0, len(traj.times), CSV_CHUNK_ROWS):
        r1 = r0 + CSV_CHUNK_ROWS
        block = np.take(np.hstack([a[r0:r1] for a in arrays]), order, axis=1)
        yield "\n".join(map(str.__add__, _repr_rows(block),
                              map(tails.__getitem__, pair[r0:r1].tolist())))
