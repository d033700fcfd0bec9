"""Cone utilities for symmetric matrices.

The open cone of positive definite n x n matrices has removal rank n:
the diagonal unit family shows n summands can be jointly necessary,
while among any n+1 semidefinite summands with definite sum one is
always removable. Both halves run here as eigenvalue checks.
"""

import math

import numpy as np

from .errors import InvalidInput, NoneRemovable, SumNotPD

# closure membership floor for a single matrix
PSD_FLOOR = 1e-10

# definiteness is relative: min eigenvalue > PD_REL_TOL * ||S||_F
PD_REL_TOL = 1e-8

# accepted spectral-radius margin when testing a summand for removal
REMOVABLE_MARGIN = 1e-10


class PSDMatrix:
    """A real symmetric positive semidefinite matrix.

    Symmetry is enforced by averaging with the transpose; the minimum
    eigenvalue may dip below zero only by PSD_FLOOR.
    """

    __slots__ = ("mat", "n")

    def __init__(self, mat):
        m = np.asarray(mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInput("a cone element is a square matrix")
        if not np.all(np.isfinite(m)):
            raise InvalidInput("matrix entries must be finite")
        m = 0.5 * (m + m.T)
        low = float(np.linalg.eigvalsh(m)[0])
        if low < -PSD_FLOOR:
            raise InvalidInput(
                "eigenvalue %.3g is below the semidefinite floor" % low
            )
        self.mat = m
        self.n = m.shape[0]

    def norm(self):
        return float(np.linalg.norm(self.mat))

    def is_zero(self):
        return self.norm() == 0.0

    def __repr__(self):
        return "PSDMatrix(n=%d, norm=%.6g)" % (self.n, self.norm())


def _as_psd(value):
    return value if isinstance(value, PSDMatrix) else PSDMatrix(value)


def _common_dim(mats):
    if not mats:
        raise InvalidInput("need at least one matrix")
    n = mats[0].n
    for m in mats:
        if m.n != n:
            raise InvalidInput("matrix sizes disagree")
    return n


def _sum_definite(mats):
    """Sum of the family, raising SumNotPD unless definite."""
    n = _common_dim(mats)
    s = np.zeros((n, n))
    for m in mats:
        s += m.mat
    low = float(np.linalg.eigvalsh(s)[0])
    if low <= PD_REL_TOL * float(np.linalg.norm(s)):
        raise SumNotPD(
            "sum has minimum eigenvalue %.3g, not positive definite" % low
        )
    return s


def removable_index(mats):
    """Smallest index k whose removal keeps the sum positive definite.

    With S the (definite) sum, each summand is compared through
    B_k = S^(-1/2) A_k S^(-1/2); a spectral radius below one means
    S - A_k = S^(1/2) (I - B_k) S^(1/2) stays definite. Every summand
    must be nonzero. The returned index is post-verified directly on
    the eigenvalues of S - A_k. When no index qualifies, which the
    trace of sum(B_k) = I rules out for more than n summands,
    NoneRemovable reports the count.
    """
    mats = [_as_psd(m) for m in mats]
    n = _common_dim(mats)
    for i, m in enumerate(mats):
        if m.is_zero():
            raise InvalidInput("summand %d is the zero matrix" % i)
    s = _sum_definite(mats)
    w, q = np.linalg.eigh(s)
    inv_sqrt = q @ np.diag(1.0 / np.sqrt(w)) @ q.T
    for k, m in enumerate(mats):
        b = inv_sqrt @ m.mat @ inv_sqrt
        b = 0.5 * (b + b.T)
        top = float(np.linalg.eigvalsh(b)[-1])
        if top >= 1.0 - REMOVABLE_MARGIN:
            continue
        rest = float(np.linalg.eigvalsh(s - m.mat)[0])
        if rest > 0.0:
            return k
    raise NoneRemovable(
        "none of the %d summands is removable in dimension %d"
        % (len(mats), n),
        count=len(mats),
    )


def rank_witness_check(n):
    """Whether the diagonal unit matrices witness n jointly necessary
    summands: their sum is the identity, definite, while every
    deletion leaves a singular sum."""
    if n < 1:
        raise InvalidInput("dimension must be at least 1")
    family = [np.zeros((n, n)) for _ in range(n)]
    for i in range(n):
        family[i][i, i] = 1.0
    total = sum(family)
    if float(np.linalg.eigvalsh(total)[0]) <= PD_REL_TOL * math.sqrt(n):
        return False
    for i in range(n):
        rest = total - family[i]
        low = float(np.linalg.eigvalsh(rest)[0])
        if low > PD_REL_TOL * float(np.linalg.norm(rest)):
            return False
    return True


def _random_psd(rng, n):
    """Gram matrix of a Gaussian block; about half the draws are rank
    deficient to probe the cone's closure."""
    if n == 1:
        rows = 1
    elif rng.random() < 0.5:
        rows = n
    else:
        rows = int(rng.integers(1, n))
    g = rng.standard_normal((rows, n))
    return PSDMatrix(g.T @ g)


def rank_upper_sample(n, trials, seed=0):
    """Number of random (n+1)-tuples of semidefinite matrices with
    definite sum for which no summand is removable.

    Each trial draws from its own generator spawned off the seed, so
    runs are reproducible and trials are independent. Tuples whose sum
    fails the definiteness tolerance are redrawn inside the trial.
    Any count above zero contradicts the removal rank of the cone.
    """
    if n < 1:
        raise InvalidInput("dimension must be at least 1")
    if trials < 1:
        raise InvalidInput("need at least one trial")
    violations = 0
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        while True:
            mats = [_random_psd(rng, n) for _ in range(n + 1)]
            try:
                _sum_definite(mats)
            except SumNotPD:
                continue
            break
        try:
            removable_index(mats)
        except (NoneRemovable, SumNotPD):
            violations += 1
    return violations

