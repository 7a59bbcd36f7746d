"""Output files: atomic writes, and trajectory.csv formatted by orjson with
the bytes of ``repr``.

Every file is written to a temporary file in its directory, which replaces
the target only when it is complete, so a failed write leaves the old file.
The temporary file is given the mode a new file gets under the umask
(``0o666 & ~umask``), not the 0600 of ``tempfile.mkstemp``.

trajectory.csv is assembled ``CSV_CHUNK_ROWS`` rows at a time.  A block's
float cells are gathered by one ``hstack`` of the eight Trajectory arrays
(t, x, y, rho, z, u, eta_g, eta_h) and one ``take`` through the header's
column order, computed once; ``take`` leaves the block C-contiguous, as
orjson needs.  Each row's ``,r_state,attack_active`` cells come from a
table indexed by the (graph, attack) pair, and the block's rows are joined
into one string, written by one call.  The float cells of a block are
formatted by one ``orjson.dumps`` call.  Like ``repr``, orjson writes a
float64 as the shortest decimal digits that read back to the same value,
choosing the nearest such digits (a Ryu-style encoder; Adams, PLDI 2018).
The two pick the same digits and differ only in how they lay them out,
which three rewrites undo:

1. exponents: orjson writes ``1e16`` and ``1e-7``, ``repr`` writes
   ``1e+16`` and ``1e-07``, with a sign always and at least two digits;
   two regular expressions add the sign and the leading zero;
2. the decade [1e-5, 1e-4): ``repr`` writes scientific notation from 1e-4
   down, orjson only from 1e-5 down, so it writes ``0.00001234`` where
   ``repr`` writes ``1.234e-05``;
3. non-finite cells: orjson writes nan, inf and -inf as ``null``.

The cells of 2 and 3 are handed to orjson as nan, and the k-th ``null`` of
a block is replaced by ``repr`` of the block's k-th such cell in row-major
order.  Everywhere else (fixed notation from 1e-4 up to 1e16, signed zeros,
the subnormals) the two write the same bytes, which the tests check on
random float64 bit patterns and on every power of ten and its neighbours.
"""

from __future__ import annotations

import os
import re
import tempfile
from contextlib import contextmanager
from itertools import chain

import numpy as np
import orjson

from .sim import Scenario

# Rows of trajectory.csv gathered per block.  Larger blocks format no
# faster and raise the peak memory of a run.
CSV_CHUNK_ROWS = 64

_EXPONENT_SIGN = re.compile(r"e(?=\d)")
_EXPONENT_ONE_DIGIT = re.compile(r"(e[+-])(\d)(?=[,\]])")


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


def _repr_rows(block: np.ndarray) -> list:
    """Each row of the float64 ``block`` as the ``repr`` of its cells joined
    by commas."""
    magnitude = np.abs(block)
    spliced = ~np.isfinite(block) | ((magnitude >= 1e-5) & (magnitude < 1e-4))
    cells = block[spliced].tolist()
    if cells:
        block = np.where(spliced, np.nan, block)
    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    if "e" in text:
        text = _EXPONENT_ONE_DIGIT.sub(r"\g<1>0\2",
                                       _EXPONENT_SIGN.sub("e+", text))
    if cells:
        pieces = text.split("null")
        text = "".join(chain.from_iterable(zip(pieces, map(repr, cells))))\
            + pieces[-1]
    return text[2:-2].split("],[")


def _column_order(scenario: Scenario, traj, arrays) -> np.ndarray:
    """The float columns of trajectory.csv in header order, as indices into
    a row of ``arrays``, the eight Trajectory arrays side by side."""
    widths = [a.shape[1] for a in arrays]
    t, x, y, rho, z, u, eta_g, eta_h = np.split(np.arange(sum(widths)),
                                                np.cumsum(widths)[:-1])
    q = scenario.q
    order = [t]
    for i in range(scenario.n_agents):
        s0, s1 = traj.state_slices[i]
        u0, u1 = traj.input_slices[i]
        c0, c1 = i * q, (i + 1) * q
        order += [x[s0:s1], y[c0:c1], rho[c0:c1], z[c0:c1], u[u0:u1],
                  eta_g[i:i + 1], eta_h[i:i + 1]]
    return np.concatenate(order)


def trajectory_lines(scenario: Scenario, traj):
    """trajectory.csv in pieces that ``write_atomic`` ends with a newline:
    the header, then each block of ``CSV_CHUNK_ROWS`` rows as one string,
    its rows joined by newlines.  Each float cell is written as ``repr``
    writes it (``_repr_rows``), which is what ``cli._fmt`` writes for a
    float cell.
    """
    yield ",".join(trajectory_header(scenario))
    arrays = (traj.times[:, None], traj.x, traj.y, traj.rho, traj.z, traj.u,
              traj.eta_g, traj.eta_h)
    order = _column_order(scenario, traj, arrays)
    tails = [f",{r},{attacked}"
             for r in range(len(scenario.graph_process.graphs)) for attacked in (0, 1)]
    pair = 2 * traj.r_state + traj.attack_on
    for r0 in range(0, len(traj.times), CSV_CHUNK_ROWS):
        r1 = r0 + CSV_CHUNK_ROWS
        block = np.take(np.hstack([a[r0:r1] for a in arrays]), order, axis=1)
        yield "\n".join(map(str.__add__, _repr_rows(block),
                              map(tails.__getitem__, pair[r0:r1].tolist())))
