"""The spectral removal test and the trial loop that only the tests use.

removable_index decides removability through B_k = S^(-1/2) A_k S^(-1/2)
and post-verifies on S - A_k, and trials replays the criterion-02 draw
loop with a PSDMatrix per draw: together an independent route to the
indices and stacks that orbitlab.cones reads from one definiteness test.
"""

import numpy as np

from orbitlab.cones import PD_REL_TOL, PSDMatrix
from orbitlab.errors import InvalidInput, NoneRemovable, SumNotPD

# accepted spectral-radius margin when testing a summand for removal
REMOVABLE_MARGIN = 1e-10


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


def trials(n, count, seed=0):
    """Each trial's summands and removable index (-1 when none is), in
    the draw and redraw order of the criterion-02 loop: a generator
    spawned off the seed per trial, a tuple redrawn while its sum fails
    the definiteness tolerance."""
    for child in np.random.SeedSequence(seed).spawn(count):
        rng = np.random.default_rng(child)
        while True:
            mats = [_random_psd(rng, n) for _ in range(n + 1)]
            try:
                _sum_definite(mats)
            except SumNotPD:
                continue
            break
        try:
            k = removable_index(mats)
        except (NoneRemovable, SumNotPD):
            k = -1
        yield mats, k
