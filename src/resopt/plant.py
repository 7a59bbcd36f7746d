"""Heterogeneous linear agent models and the regulator-equation machinery.

Each agent is ``dx = A x + B u, y = C x`` with a stabilizing feedback gain K
and a regulator triple (U, W, X) solving ``B U = A X, B W = X, C X = I``.
Construction validates the solvability rank condition, the Hurwitz property
of ``A - B K``, and the regulator residuals; a model that fails any of these
cannot be built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import RegulationError, ValidationError

RANK_REL_TOL = 1e-9
HURWITZ_MARGIN = -1e-9
REGULATION_TOL = 1e-9


def _matrix(value, name: str) -> np.ndarray:
    m = np.atleast_2d(np.asarray(value, dtype=float))
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def numerical_rank(m: np.ndarray) -> int:
    """Rank by singular values with threshold ``1e-9 * sigma_max``."""
    svals = np.linalg.svd(m, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > RANK_REL_TOL * svals[0]))


def check_rank_condition(a, b, c) -> bool:
    """Solvability test: ``rank [[C B, 0], [-A B, B]] == n + q``."""
    a, b, c = _matrix(a, "A"), _matrix(b, "B"), _matrix(c, "C")
    n = a.shape[0]
    q, p = c.shape[0], b.shape[1]
    if a.shape != (n, n) or b.shape[0] != n or c.shape[1] != n:
        raise ValidationError("A, B, C dimensions are inconsistent")
    block = np.block([[c @ b, np.zeros((q, p))], [-(a @ b), b]])
    return numerical_rank(block) == n + q


def is_hurwitz(m) -> tuple[bool, float]:
    """Whether all eigenvalues have real part below the margin; returns the
    spectral abscissa alongside."""
    m = _matrix(m, "matrix")
    if m.shape[0] != m.shape[1]:
        raise ValidationError("Hurwitz test needs a square matrix")
    abscissa = float(np.max(np.linalg.eigvals(m).real))
    return abscissa < HURWITZ_MARGIN, abscissa


def is_controllable(a, b) -> bool:
    """Kalman rank test on ``[B, AB, ..., A^(n-1) B]``."""
    a, b = _matrix(a, "A"), _matrix(b, "B")
    n = a.shape[0]
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    return numerical_rank(np.hstack(blocks)) == n


def solve_regulation(a, b, c):
    """Minimum-norm solution (U, W, X) of the regulator equations.

    Stacks ``B U - A X = 0``, ``B W - X = 0``, ``C X = I`` into one linear
    least-squares system over vec(U), vec(W), vec(X) and solves it with the
    pseudoinverse, so among the (generally many) solutions the smallest one
    is returned.  Raises when the residual exceeds the tolerance.
    """
    a, b, c = _matrix(a, "A"), _matrix(b, "B"), _matrix(c, "C")
    n, p, q = a.shape[0], b.shape[1], c.shape[0]
    iq = np.eye(q)

    def kron(m, cols):
        # coefficient of vec(V) in rows of M @ V for V with `cols` columns
        return np.kron(np.eye(cols), m)

    zeros = np.zeros
    rows_bu = np.hstack([kron(b, q), zeros((n * q, p * q)), -kron(a, q)])
    rows_bw = np.hstack([zeros((n * q, p * q)), kron(b, q), -kron(np.eye(n), q)])
    rows_cx = np.hstack([zeros((q * q, p * q)), zeros((q * q, p * q)), kron(c, q)])
    system = np.vstack([rows_bu, rows_bw, rows_cx])
    rhs = np.concatenate([zeros(n * q), zeros(n * q), iq.reshape(-1, order="F")])
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)

    u = solution[: p * q].reshape((p, q), order="F")
    w = solution[p * q: 2 * p * q].reshape((p, q), order="F")
    x = solution[2 * p * q:].reshape((n, q), order="F")
    residual = max(np.linalg.norm(b @ u - a @ x),
                   np.linalg.norm(b @ w - x),
                   np.linalg.norm(c @ x - iq))
    if residual >= REGULATION_TOL:
        raise RegulationError(
            f"regulator equations are inconsistent (residual {residual:.3e}); "
            "the rank condition likely fails")
    return u, w, x


@dataclass(frozen=True)
class AgentModel:
    """One agent's validated matrices ``(A, B, C, K, U, W, X)``."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    K: np.ndarray
    U: np.ndarray
    W: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        a, b, c = _matrix(self.A, "A"), _matrix(self.B, "B"), _matrix(self.C, "C")
        k = _matrix(self.K, "K")
        u, w, x = _matrix(self.U, "U"), _matrix(self.W, "W"), _matrix(self.X, "X")
        n, p, q = a.shape[0], b.shape[1], c.shape[0]
        shapes = {"A": (a, (n, n)), "B": (b, (n, p)), "C": (c, (q, n)),
                  "K": (k, (p, n)), "U": (u, (p, q)), "W": (w, (p, q)),
                  "X": (x, (n, q))}
        for name, (mat, want) in shapes.items():
            if mat.shape != want:
                raise ValidationError(f"{name} has shape {mat.shape}, expected {want}")
        if not check_rank_condition(a, b, c):
            raise ValidationError("rank condition fails: regulator equations unsolvable")
        hurwitz, abscissa = is_hurwitz(a - b @ k)
        if not hurwitz:
            raise ValidationError(
                f"A - B K is not Hurwitz (spectral abscissa {abscissa:.3e})")
        residual = max(np.linalg.norm(b @ u - a @ x),
                       np.linalg.norm(b @ w - x),
                       np.linalg.norm(c @ x - np.eye(q)))
        if residual >= REGULATION_TOL:
            raise ValidationError(
                f"regulator triple (U, W, X) has residual {residual:.3e} >= 1e-9")
        if not is_controllable(a, b):
            warnings.warn("(A, B) fails the Kalman controllability test",
                          stacklevel=2)
        for name, (mat, _) in shapes.items():
            object.__setattr__(self, name, mat)

    @classmethod
    def build(cls, a, b, c, k, u=None, w=None, x=None) -> "AgentModel":
        """Build a model, solving the regulator equations unless a pinned
        (U, W, X) triple is supplied."""
        if u is None or w is None or x is None:
            if not (u is None and w is None and x is None):
                raise ValidationError("pin all of (U, W, X) or none of them")
            u, w, x = solve_regulation(a, b, c)
        return cls(A=a, B=b, C=c, K=k, U=u, W=w, X=x)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @property
    def q(self) -> int:
        return self.C.shape[0]

