"""Cone utilities for symmetric matrices.

The open cone of positive definite n x n matrices has removal rank n:
the diagonal unit family shows n summands can be jointly necessary,
while among any n+1 semidefinite summands with definite sum one is
always removable. Both halves run here as one definiteness test.
"""

import numpy as np

from .errors import InvalidInput, NoneRemovable, SumNotPD

# closure membership floor for a single matrix
PSD_FLOOR = 1e-10

# definiteness is relative: min eigenvalue > PD_REL_TOL * ||S||_F
PD_REL_TOL = 1e-8


class PSDMatrix:
    """A real symmetric positive semidefinite matrix.

    Symmetry is enforced by averaging with the transpose; the minimum
    eigenvalue may dip below zero only by PSD_FLOOR.
    """

    __slots__ = ("mat", "n")

    def __init__(self, mat):
        m = np.asarray(mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise InvalidInput("a cone element is a nonempty square matrix")
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
        """The Frobenius norm by hypot over the entries, as _definite
        takes it, so it neither underflows nor overflows."""
        return float(np.hypot.reduce(self.mat.ravel()))

    def is_zero(self):
        """No nonzero entry."""
        return not np.any(self.mat)

    def __repr__(self):
        return "PSDMatrix(n=%d, norm=%.6g)" % (self.n, self.norm())


def _definite(x):
    """Whether each symmetric matrix of the stack x (..., n, n) is
    positive definite: min eigenvalue > PD_REL_TOL * ||x||_F, the norm
    read off the same eigenvalues by hypot, which neither underflows
    nor overflows where squared entries would."""
    w = np.linalg.eigvalsh(x)
    return w[..., 0] > PD_REL_TOL * np.hypot.reduce(w, axis=-1)


def _removable(stack):
    """First k whose removal from the summands stack (m, n, n) leaves a
    definite sum S - A_k, or -1.

    S - A_k = S^(1/2) (I - B_k) S^(1/2) with B_k = S^(-1/2) A_k S^(-1/2),
    so by Sylvester's law of inertia this is the spectral test
    lambda_max(B_k) < 1 without forming S^(-1/2).
    """
    ok = _definite(stack.sum(axis=0) - stack)
    k = int(ok.argmax())
    return k if ok[k] else -1


def removable_index(mats):
    """Smallest index k whose removal keeps the sum positive definite.

    Every summand must be nonzero and the sum S definite. When no index
    qualifies, which the trace of sum S^(-1/2) A_k S^(-1/2) = I rules
    out for more than n summands, NoneRemovable reports the count.
    """
    mats = [m if isinstance(m, PSDMatrix) else PSDMatrix(m) for m in mats]
    if not mats:
        raise InvalidInput("need at least one matrix")
    n = mats[0].n
    if any(m.n != n for m in mats):
        raise InvalidInput("matrix sizes disagree")
    for i, m in enumerate(mats):
        if m.is_zero():
            raise InvalidInput("summand %d is the zero matrix" % i)
    stack = np.stack([m.mat for m in mats])
    s = stack.sum(axis=0)
    if not _definite(s):
        raise SumNotPD(
            "sum has minimum eigenvalue %.3g, not positive definite"
            % float(np.linalg.eigvalsh(s)[0])
        )
    k = _removable(stack)
    if k < 0:
        raise NoneRemovable(
            "none of the %d summands is removable in dimension %d"
            % (len(mats), n),
            count=len(mats),
        )
    return k


def rank_witness_check(n):
    """Whether the diagonal unit matrices witness n jointly necessary
    summands: their sum is the identity, definite, while no summand is
    removable."""
    if n < 1:
        raise InvalidInput("dimension must be at least 1")
    family = np.zeros((n, n, n))
    family[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    try:
        removable_index(family)
    except NoneRemovable:
        return True
    return False


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
    return g.T @ g


def _trial_stacks(n, trials, seed):
    """Each trial's (n+1, n, n) summands with definite sum, drawn from
    its own generator spawned off the seed; a tuple whose sum fails the
    definiteness tolerance is redrawn inside the trial. The children are
    spawned one at a time, the same as spawn(trials) gives, so memory
    does not grow with trials."""
    root = np.random.SeedSequence(seed)
    for _ in range(trials):
        rng = np.random.Generator(np.random.PCG64(root.spawn(1)[0]))
        while True:
            stack = np.array([_random_psd(rng, n) for _ in range(n + 1)])
            if _definite(stack.sum(axis=0)):
                break
        yield stack


def rank_upper_sample(n, trials, seed=0):
    """Number of random (n+1)-tuples of semidefinite matrices with
    definite sum for which no summand is removable.

    Trials come from _trial_stacks, so runs are reproducible, trials
    are independent and are decided one at a time. Any count above zero
    contradicts the removal rank of the cone.
    """
    if n < 1:
        raise InvalidInput("dimension must be at least 1")
    if trials < 1:
        raise InvalidInput("need at least one trial")
    return sum(_removable(stack) < 0 for stack in _trial_stacks(n, trials, seed))
