"""Group presentations, word enumeration and limit-set sampling.

The constructors here build three kinds of GroupSpec. free_schottky takes
hyperbolic Mobius generators and certifies at construction that they play
ping-pong: for a generator with singular values s > 1 > 1/s the set of
directions it contracts below norm 1 is an arc on the boundary circle
around its minor right-singular direction, of half angle
2*asin(1/sqrt(s^2+1)); a generator maps the complement of its own arc onto
the arc of its inverse, so 2k pairwise disjoint arcs force the group to be
free and discrete, and word enumeration needs only free reduction. modular
is the integer group generated by s = [[0,-1],[1,0]] and t = [[1,1],[0,1]];
its elements are deduplicated exactly, on their float64 rows up to
overall sign, which hold exact integers while every entry stays below
2^53 (the walk raises before a product could pass it). custom takes
arbitrary generators and deduplicates by rounding relative to the
matrix magnitude, which can merge distinct elements of a non-discrete
group, so enumeration is flagged non-exhaustive (exact_dedup, which
follows from the kind, is False, and certified samples say so in their
label) and a crude discreteness probe only warns. A fourth kind,
doubled, is the reflection extension that the doubling module builds;
it deduplicates by the same rounding.

One breadth-first walker serves every kind, and it alone forms the
products along the words of a ball; every consumer loops over its
levels. _walk_levels keeps the word tree as arrays, one level per word
length: for each row its parent row and the alphabet positions of its
letters, its Mobius matrix and orientation, the products of the
letters' matrices and of their orientations, and, for each letter table
a caller passes in, the plain product of the table's matrices along the
word, which for a table equal to the images is the level's matrices
themselves. A level is built from the one before with one 2-D product
per letter over the whole level and one gather of the candidates
(_extend), which round exactly as one product at a time does. The
walker never appends the inverse of a word's last letter: that gives
back the word's parent, already seen, whatever the relations of the
group. Duplicates are dropped with keys computed a level at a time and
one sort of their 64-bit hashes per level.
enumerate_elements streams the levels as (Word, Mobius) pairs. Walks
for a representation carry rep.tables (_rep_tables), whose products
cartan._cartan_rows turns into Cartan vectors for orbit tables, the
orbit CSV, growth samples and distortion scans; the limit-set sample
(_limit_rows) keeps angles and products as arrays over its rows for
flags._limit_stack, and letter codes, padded, only for
limit_sample_words, which turns them into Words. No Mobius value is
formed for a row whose numbers hypdisc's kernels read a level at once.

The modular norm ball is not walked. modular_norm_ball finds every
modular element with entries bounded by an integer in one array scan,
from the coprime first columns and the extended Euclidean algorithm run
on all of them at once, and returns the sign-canonical matrices as an
(N, 2, 2) int64 array, with no words.

Letters are single characters: generators a, b, c, ... with inverses
A, B, C, ...; the modular alphabet is S (self-inverse), T and its inverse
written t. Enumeration streams words by length, then lexicographically in
the order the alphabet is listed.
"""

import math
import warnings

import numpy as np

from .cartan import CartanVector, _cartan_rows
from .errors import InvalidInput, NonElementary
from .hypdisc import (
    TRACE_TOL,
    TWO_PI,
    BoundaryPoint,
    Mobius,
    _fixed_angles,
    _half_lengths,
    angular_distance,
    classify,
    wrap_angle,
)

MODULAR_S = ((0, -1), (1, 0))
MODULAR_T = ((1, 1), (0, 1))

LIMIT_DEDUP_TOL = 1e-12

# odd multiplier of _first_new's row hash, 2^64 over the golden ratio
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


class Word:
    """An immutable letter sequence; reduction is the group's business."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = tuple(letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self):
        return "".join(self.letters) if self.letters else "e"

    def __repr__(self):
        return "Word(%s)" % str(self)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)


class GroupSpec:
    """A group presentation with letter tables.

    Fields: kind; alphabet (ordered letters, generators first with each
    inverse right after its generator); images, letter to Mobius;
    inverse_letter map; dedup_tol, the rounding tolerance of the custom
    and doubled kinds. exact_dedup, whether enumeration is guaranteed
    duplicate-free and exhaustive, follows from the kind: free_schottky
    needs no dedup and modular dedups on its exact float rows.
    """

    __slots__ = ("kind", "alphabet", "images", "inverse_letter", "dedup_tol")

    def __init__(self, kind, alphabet, images, inverse_letter, dedup_tol=None):
        self.kind = kind
        self.alphabet = list(alphabet)
        self.images = dict(images)
        self.inverse_letter = dict(inverse_letter)
        self.dedup_tol = dedup_tol

    @property
    def exact_dedup(self):
        return self.kind in ("free_schottky", "modular")

    def image(self, letter):
        try:
            return self.images[letter]
        except KeyError:
            raise InvalidInput("unknown letter %r" % letter)

    def generator_matrices(self):
        """Letter-to-2x2-array table covering the whole alphabet, the shape
        representation builders consume."""
        return {a: self.images[a].mat.copy() for a in self.alphabet}

    def __repr__(self):
        return "GroupSpec(%s, alphabet=%s)" % (self.kind, "".join(self.alphabet))


def _contraction_arc(mob):
    """Boundary arc of directions a hyperbolic value contracts below norm 1:
    (center angle, half angle) around the minor right-singular direction."""
    _, svals, vt = np.linalg.svd(mob.mat)
    s1 = svals[0]
    if s1 <= 1.0 + 1e-12:
        raise InvalidInput("generator does not contract (singular value %.6g)" % s1)
    v2 = vt[1]
    center = wrap_angle(2.0 * math.atan2(v2[1], v2[0]))
    half = 2.0 * math.asin(1.0 / math.sqrt(s1 * s1 + 1.0))
    return center, half


def _free_tables(generators):
    """Alphabet, letter-to-Mobius and inverse-letter tables of the free
    group on the given generators: letters a, A, b, B, ..., the capital
    the inverse."""
    gens = [g if isinstance(g, Mobius) else Mobius(g) for g in generators]
    if not gens:
        raise InvalidInput("need at least one generator")
    if len(gens) > 26:
        raise InvalidInput("at most 26 generators")
    alphabet = []
    images = {}
    inverse_letter = {}
    for i, g in enumerate(gens):
        lo, up = chr(ord("a") + i), chr(ord("A") + i)
        alphabet += [lo, up]
        images[lo] = g
        images[up] = g.inverse()
        inverse_letter[lo] = up
        inverse_letter[up] = lo
    return alphabet, images, inverse_letter


def free_schottky(generators):
    """Schottky group on hyperbolic generators, ping-pong checked.

    The check is sufficient, not necessary: it uses the contraction arcs
    about the origin, so some discrete free groups are refused. Axes
    ((0.5, 1.2), (3.0, 3.8)) with lengths (0.7, 1.1) give a pants group
    (tr ab = -2.79 with positive lifts), yet the arcs of a and B overlap.
    """
    alphabet, images, inverse_letter = _free_tables(generators)
    for i, g in enumerate(images[a] for a in alphabet[::2]):
        if g.orientation != 1:
            raise InvalidInput("generator %d is orientation reversing" % (i + 1))
        if classify(g) != "hyperbolic":
            raise InvalidInput(
                "generator %d is %s, Schottky generators must be hyperbolic"
                % (i + 1, classify(g))
            )
    arcs = [(a, _contraction_arc(images[a])) for a in alphabet]
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            (la, (ca, ha)), (lb, (cb, hb)) = arcs[i], arcs[j]
            if angular_distance(ca, cb) <= ha + hb:
                raise InvalidInput(
                    "ping-pong arcs of %s and %s overlap; not a Schottky system"
                    % (la, lb)
                )
    return GroupSpec("free_schottky", alphabet, images, inverse_letter)


def standard_schottky(translation_length=4.0, axis_angle=0.5 * math.pi):
    """Two boosts of equal translation length, the second along an axis
    rotated by axis_angle; separation is certified by the ping-pong check."""
    s = 0.5 * translation_length
    a = Mobius(np.diag([math.exp(s), math.exp(-s)]))
    rot = Mobius.rotation(axis_angle)
    b = rot @ a @ rot.inverse()
    return free_schottky([a, b])


def modular_group():
    """The integer group on s = [[0,-1],[1,0]] and t = [[1,1],[0,1]]."""
    s = Mobius(np.array(MODULAR_S, dtype=float))
    t = Mobius(np.array(MODULAR_T, dtype=float))
    images = {"S": s, "T": t, "t": t.inverse()}
    inverse_letter = {"S": "S", "T": "t", "t": "T"}
    return GroupSpec("modular", ["S", "T", "t"], images, inverse_letter)


def custom_group(generators, dedup_tol=1e-8):
    """Arbitrary generators; duplicates are merged by rounding at dedup_tol,
    relative to the matrix magnitude, and enumeration is therefore
    flagged non-exhaustive."""
    group = GroupSpec("custom", *_free_tables(generators), dedup_tol=dedup_tol)
    _discreteness_probe(group)
    return group


def _discreteness_probe(group, depth=6, margin=1e-3):
    """Crude probe: a short nonempty reduced word landing very close to the
    identity suggests a non-discrete or badly conditioned group."""
    for word, mob in enumerate_elements(group, depth):
        if len(word) == 0:
            continue
        if mob.is_identity(margin):
            warnings.warn(
                "word %s is within %.1e of the identity; the group may be "
                "non-discrete and enumeration incomplete" % (word, margin),
                stacklevel=3,
            )
            return


def _sign_canonical(flat):
    """Rows (N, 4) negated where the first nonzero entry is negative, so
    M and -M share a row."""
    lead = flat[np.arange(len(flat)), np.argmax(flat != 0.0, axis=1)]
    return np.where((lead < 0)[:, None], -flat, flat)


def _scaled_key(flat, tol):
    """Rounding keys at a tolerance relative to the matrix magnitude:
    each row (N, 4) divided by its signed entry of largest magnitude,
    then rounded half-even to a multiple of tol, and log |lead| rounded
    alike, the magnitude the division discards (a^10 and a^11 of a boost
    of length 2 differ in nothing else).

    An absolute grid splits true duplicates once entries grow large:
    the float drift between two multiplication orders scales with the
    entries and eventually straddles grid boundaries. Discreteness of
    the group keeps distinct elements relatively separated, so rounding
    the scaled row keeps duplicates together while still only merging
    elements closer than tol in relative terms. The leading entry
    becomes exactly 1, so M and -M share a key, and no scale depends on
    which side of a power of two a drifted entry falls. Adding 0.0
    folds -0.0 into 0.0.
    """
    lead = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=1)]
    key = np.empty((len(flat), 5))
    np.divide(flat, lead[:, np.newaxis], out=key[:, :4])
    np.log(np.abs(lead), out=key[:, 4])
    key /= tol
    np.rint(key, out=key)
    key += 0.0
    return key


def _first_new(keys, seen):
    """Positions of the rows of keys equal to no row of seen and to no
    earlier row of keys.

    Each row of seen, then keys, is hashed to 64 bits by a multiply-xor
    over its uint64 bits (_HASH_MULT), and one plain np.argsort of the
    hashes puts equal rows next to each other; a run of equal hashes
    keeps its least position (np.minimum.reduceat), so the sort need not
    be stable. Keys are free of -0.0 and NaN, so equal bits are equal
    values. The hash is checked, not trusted: every hash-adjacent pair
    with equal hashes must be equal in all columns, and on a collision
    the call falls back to _first_new_bytes.
    """
    bits = np.concatenate([seen, keys]).view(np.uint64)
    h = np.zeros(len(bits), dtype=np.uint64)
    for col in bits.T:
        h ^= col
        h *= _HASH_MULT
        h ^= h >> np.uint64(32)
    order = np.argsort(h)
    h = h[order]
    start = np.ones(len(order), dtype=bool)
    np.not_equal(h[1:], h[:-1], out=start[1:])
    tied = order[np.flatnonzero(~start[1:])[:, np.newaxis] + [0, 1]]
    if np.any(bits[tied[:, 0]] != bits[tied[:, 1]]):
        return _first_new_bytes(keys, seen)
    kept = np.minimum.reduceat(order, np.flatnonzero(start))
    return np.sort(kept[kept >= len(seen)]) - len(seen)


def _first_new_bytes(keys, seen):
    """_first_new by a stable sort of the rows as raw bytes, which puts
    each run of equal rows in position order; only a run's first row
    survives. The fallback of _first_new on a hash collision."""
    both = np.concatenate([seen, keys])
    rows = both.view(np.dtype((np.void, both.itemsize * both.shape[1]))).ravel()
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    kept = order[first]
    return np.sort(kept[kept >= len(seen)]) - len(seen)


class _Level:
    """One level of the word tree, as read-only arrays over its rows.

    Row i is the word of row parent[i] one level up, extended by one
    letter; codes[i] holds the alphabet positions of its letters, so
    codes[:, -1] is each row's last letter. mats holds its Mobius
    matrix, the product of the letters' matrices, and orientation the
    product of their orientations; products holds, for each letter table
    walked, the (N, d, d) array of the plain products of the table's
    matrices along the words, which is mats itself for a table equal to
    the images. No consumer can write through one name into another.
    """

    __slots__ = ("alphabet", "parent", "codes", "mats", "orientation", "products")

    def __init__(self, alphabet, parent, codes, mats, orientation, products):
        for array in (parent, codes, mats, orientation, *products):
            array.flags.writeable = False
        self.alphabet = alphabet
        self.parent = parent
        self.codes = codes
        self.mats = mats
        self.orientation = orientation
        self.products = products

    def __len__(self):
        return len(self.parent)

    def word(self, i):
        """The Word of row i."""
        return Word([self.alphabet[c] for c in self.codes[i].tolist()])

    def rows(self):
        """(i, Mobius) for every row, the Mobius value reusing the row."""
        for i, orientation in enumerate(self.orientation.tolist()):
            yield i, Mobius._normalized(self.mats[i], orientation)


def _extend(prev, stack, picks):
    """The products prev[r] @ stack[l] of the flat picks r * L + l, L =
    len(stack), in the order of picks: one 2-D product per letter, the
    (N, d, d) stack prev read as N d rows of length d times stack[l],
    into one (L, N, d, d) buffer, then one np.take of the picks.

    OpenBLAS forms each entry of its large-gemm kernel in the order of
    its per-matrix one (for d = 2, fma(a1, b1, a0 b0)), so the rows equal
    np.matmul(prev[rows], stack[letters]) bit for bit; the tests check
    this on random stacks, since the route has no fallback.
    """
    n, d = prev.shape[0], prev.shape[-1]
    buf = np.empty((len(stack), n, d, d))
    flat = prev.reshape(n * d, d)
    for letter, mat in enumerate(stack):
        np.matmul(flat, mat, out=buf[letter].reshape(n * d, d))
    rows, letters = np.divmod(picks, len(stack))
    return np.take(buf.reshape(-1, d, d), letters * n + rows, axis=0)


def _walk_levels(group, max_len, tables=()):
    """The word tree of enumerate_elements, one _Level per word length.

    Every row is extended by every letter except the inverse of its
    last one (free reduction): the candidates are the flat picks r * L
    + l of the allowed (row, letter) pairs, L the alphabet's size, so
    row by row and letter by letter they come in stream order. Their
    matrices come from _extend, one 2-D product of the level's stack
    per letter and one gather, which round exactly as one product at a
    time does; orientations are products too, with no determinant and
    no rescaling. Duplicates are dropped by key (_first_new: one hash
    sort per level), exactly for modular, whose float rows are integers
    (InvalidInput is raised before an entry could pass 2^53), and by
    _scaled_key for custom and doubled; the first row with a key wins,
    and rows of earlier levels come first.
    tables are letter-to-matrix dicts whose plain products along each
    kept word the levels carry too, by _extend on the kept picks. A
    table is compared with the images once per walk (np.array_equal);
    an equal one, such as the sym3 factor of separated_schottky or of
    its doubled group, takes the level's mats as its products, so each
    level forms one product of 2x2 stacks.
    Walking stops early once a level is empty.
    """
    if max_len < 0:
        raise InvalidInput("max_len must be nonnegative")
    alphabet = group.alphabet
    position = {a: i for i, a in enumerate(alphabet)}
    inverse = np.array([position[group.inverse_letter[a]] for a in alphabet])
    images = np.array([group.images[a].mat for a in alphabet])
    signs = np.array([group.images[a].orientation for a in alphabet])
    # the identity walk reads no letter of the tables
    stacks = [np.array([np.asarray(t[a], dtype=float) for a in alphabet])
              for t in tables] if max_len else []
    shared = [np.array_equal(st, images) for st in stacks] or [False] * len(tables)
    key_of = {
        "modular": lambda flat: _sign_canonical(flat) + 0.0,
        "custom": lambda flat: _scaled_key(flat, group.dedup_tol),
        "doubled": lambda flat: _scaled_key(flat, group.dedup_tol),
    }.get(group.kind)
    mats = np.eye(2)[np.newaxis]
    level = _Level(
        alphabet, np.array([-1]), np.zeros((1, 0), dtype=np.int8),
        mats, np.array([1]),
        [mats if same else np.eye(len(next(iter(t.values()))))[np.newaxis]
         for t, same in zip(tables, shared)],
    )
    seen = key_of(level.mats.reshape(-1, 4)) if key_of else None
    yield level
    for length in range(max_len):
        allowed = np.ones((len(level), len(alphabet)), dtype=bool)
        if length:
            allowed[np.arange(len(level)), inverse[level.codes[:, -1]]] = False
        picks = np.flatnonzero(allowed)
        if (group.kind == "modular"
                and 2.0 * np.abs(level.mats).max() * np.abs(images).max() >= 2.0 ** 53):
            raise InvalidInput(
                "integer entries could pass 2^53 past word length %d" % length
            )
        mats = _extend(level.mats, images, picks)
        if key_of:
            keys = key_of(mats.reshape(-1, 4))
            kept = _first_new(keys, seen)
            # the last level's keys are never looked up
            if length + 1 < max_len:
                seen = np.concatenate([seen, keys[kept]])
            picks, mats = picks[kept], mats[kept]
            del keys, kept
        rows, letters = np.divmod(picks, len(alphabet))
        codes = np.empty((len(rows), length + 1), dtype=np.int8)
        codes[:, :length] = np.take(level.codes, rows, axis=0)
        codes[:, length] = letters
        products = [mats if same else _extend(m, st, picks)
                    for m, st, same in zip(level.products, stacks, shared)]
        level = _Level(alphabet, rows, codes, mats,
                       level.orientation[rows] * signs[letters], products)
        # a consumer computes while the walk waits at the yield; the
        # candidate arrays must not add to its peak
        del allowed, picks, rows, letters, codes, mats, products
        if not len(level):
            return
        yield level


def _rep_tables(group, rep, max_len):
    """rep.tables, each checked to cover group's alphabet unless max_len
    keeps the walk at the identity, which reads no letter."""
    missing = [a for a in group.alphabet if any(a not in t for t in rep.tables)]
    if missing and max_len >= 1:
        raise InvalidInput("letter %r has no image under %s" % (missing[0], rep.label))
    return rep.tables


def enumerate_elements(group, max_len):
    """Stream (Word, Mobius) for each distinct element of word length up to
    max_len, ordered by length then lexicographically by alphabet position.

    Every kind skips the letter that cancels the word's last letter: the
    candidate w l l^-1 is the element w itself, in any group and whatever
    its relations, and w was yielded two levels earlier. So pruning loses
    no element, and the yielded words stay freely reduced. free_schottky
    needs nothing more. modular deduplicates exactly on its float rows,
    integer matrices up to sign, and custom and doubled (built by the
    doubling module) by rounding at their dedup_tol relative to the
    matrix magnitude; an element reached by two reduced words keeps the
    first.
    The elements come from the level arrays of _walk_levels.
    """
    for level in _walk_levels(group, max_len):
        for i, mob in level.rows():
            yield level.word(i), mob


def modular_norm_ball(bound):
    """Every modular element, up to sign, with all entries bounded by the
    given integer in absolute value, as one exact array scan.

    Returns an (N, 2, 2) int64 array of sign-canonical matrices, no words:
    the first column (a, c) is coprime with a > 0, or it is (0, -1), which
    makes b = 1. The extended Euclidean algorithm, run on all columns at
    once, gives one completion (b0, d0); every other one is (b0 + k a,
    d0 + k c), and each column's k range follows from the entry bound.
    Rows come in scan order: by a, then c, then k. Any element outside
    the array has top singular value exceeding bound, since the top
    singular value dominates every entry; that gives a slack-free
    completeness threshold 2*log(bound) for the first simple root.
    """
    bound = int(bound)
    if bound < 1:
        raise InvalidInput("bound must be a positive integer")
    a, c = (x.ravel() for x in np.meshgrid(
        np.arange(bound + 1), np.arange(-bound, bound + 1), indexing="ij"))
    keep = (np.gcd(a, c) == 1) & ((a > 0) | (c == -1))
    a, c = a[keep], c[keep]
    # rows r, r', x, x', y, y' with r = a x + c y, until r' is 0
    state = np.stack([a, c, np.ones_like(a), np.zeros_like(a),
                      np.zeros_like(a), np.ones_like(a)])
    live = np.flatnonzero(c)
    while live.size:
        r, r1, x, x1, y, y1 = state[:, live]
        q = r // r1
        state[:, live] = r1, r - q * r1, x1, x - q * x1, y1, y - q * y1
        live = live[state[1, live] != 0]
    g = state[0]  # the gcd, 1 or -1
    b0, d0 = -state[4] * g, state[2] * g

    def k_range(step, base):
        # |base + k step| <= bound; step is 0 only in the columns (0, -1)
        # and (1, 0), where base is 1 and the other row keeps |k| <= bound
        edge, div = bound * np.sign(step), np.where(step == 0, 1, step)
        far = 2 * bound + 1
        return (np.where(step == 0, -far, -((edge + base) // div)),
                np.where(step == 0, far, (edge - base) // div))

    (lo_b, hi_b), (lo_d, hi_d) = k_range(a, b0), k_range(c, d0)
    lo = np.maximum(lo_b, lo_d)
    count = np.maximum(np.minimum(hi_b, hi_d) - lo + 1, 0)
    col = np.repeat(np.arange(len(a)), count)
    k = np.arange(len(col)) - np.repeat(np.cumsum(count) - count, count) + lo[col]
    a, c = a[col], c[col]
    return np.stack([a, b0[col] + k * a, c, d0[col] + k * c], axis=1).reshape(-1, 2, 2)


class OrbitRecord:
    """One group element with its displacement and Cartan data."""

    __slots__ = ("word", "displacement", "kappa", "mob")

    def __init__(self, word, displacement, kappa, mob=None):
        self.word = word
        self.displacement = float(displacement)
        self.kappa = kappa
        self.mob = mob

    @property
    def length(self):
        return len(self.word)

    def __repr__(self):
        return "OrbitRecord(%s, disp=%.6g)" % (self.word, self.displacement)


def _orbit_records(group, rep, max_len, start_len):
    """The records of orbit_table for the word lengths start_len to
    max_len, streamed, with the Cartan vectors of cartan._cartan_rows
    over each level's products and hypdisc._half_lengths over its
    matrices. The walk builds the shorter levels, but no Cartan row,
    displacement or record is formed for them."""
    levels = _walk_levels(group, max_len, _rep_tables(group, rep, max_len))
    for length, level in enumerate(levels):
        if length < start_len:
            continue
        lam = _cartan_rows(rep, level.products)
        disp = (2.0 * _half_lengths(level.mats)).tolist()
        for i, mob in level.rows():
            yield OrbitRecord(level.word(i), disp[i],
                              CartanVector._of(lam[i], rep.lie_type), mob=mob)


def orbit_table(group, rep, max_len):
    """One OrbitRecord per distinct element up to max_len, in stream order."""
    return list(_orbit_records(group, rep, max_len, 0))


def _orbit_csv_header(d):
    return "word,len,disp,%s\n" % ",".join("k%d" % (i + 1) for i in range(d))


def _orbit_csv_row(rec):
    """An OrbitRecord as a CSV row, floats to 17 significant digits."""
    lams = ",".join("%.17g" % v for v in rec.kappa.lambdas)
    return "%s,%d,%.17g,%s\n" % (rec.word, rec.length, rec.displacement, lams)


def _limit_runs(theta):
    """Stream positions of the rows standing for the points of the angles
    theta, in angle order. In sorted order a run is an angle and the ones
    after it at most LIMIT_DEDUP_TOL above it; the runs at both ends are
    one when their first angles meet across 0; a run keeps its first row."""
    order = np.argsort(theta, kind="stable")
    ranked = theta[order]
    start = np.diff(ranked, prepend=-np.inf) > LIMIT_DEDUP_TOL
    # gaps within the tolerance can chain past it: each pass starts a
    # new run at the first angle too far above its run's first
    while True:
        run = np.cumsum(start) - 1
        over = np.flatnonzero(ranked - ranked[start][run] > LIMIT_DEDUP_TOL)
        if not len(over):
            break
        start[over[np.diff(run[over], prepend=-1) > 0]] = True
    first = np.flatnonzero(start)
    kept = np.minimum.reduceat(order, first)
    if len(first) >= 2 and ranked[first[0]] + TWO_PI - ranked[first[-1]] <= LIMIT_DEDUP_TOL:
        kept = np.delete(kept, -1 if kept[0] < kept[-1] else 0)
    return kept


def _limit_rows(group, depth, tables=(), levels=None, spell=False):
    """The wrapped angles of limit_sample_words' points, if spell the
    (N, depth) letter codes of their words padded with -1, and per table
    walked the (N, d, d) products along them, from the cyclically reduced
    rows with |trace| > 2 + TRACE_TOL of the walk, or of levels, its list,
    the attracting angles alone of one hypdisc._fixed_angles call per
    level and one _limit_runs call. Orientation reversing rows raise."""
    inverse = np.array([group.alphabet.index(group.inverse_letter[a])
                        for a in group.alphabet])
    theta, codes, products = [np.empty(0)], [], []
    for level in _walk_levels(group, depth, tables) if levels is None else levels:
        length = level.codes.shape[1]
        if not length:
            continue
        keep = (length == 1) | (inverse[level.codes[:, -1]] != level.codes[:, 0])
        if np.any(level.orientation[keep] != 1):
            raise InvalidInput("orientation reversing values are not classified here")
        keep &= np.abs(level.mats[:, 0, 0] + level.mats[:, 1, 1]) > 2.0 + TRACE_TOL
        rows = np.flatnonzero(keep)
        theta.append(next(_fixed_angles(level.mats[rows])))
        if spell:
            codes.append(np.pad(level.codes[rows], ((0, 0), (0, depth - length)),
                                constant_values=-1))
        products.append([m[rows] for m in level.products])
    theta = np.concatenate(theta)
    kept = _limit_runs(theta)
    if len(kept) <= 2:
        raise NonElementary(
            "only %d accumulation points at depth %d; a non-elementary group "
            "shows at least 3 (raise depth if the group should qualify)"
            % (len(kept), depth)
        )
    return (np.mod(theta[kept], TWO_PI), np.concatenate(codes)[kept] if spell else None,
            [np.concatenate(ms)[kept] for ms in zip(*products)])


def limit_sample_words(group, depth):
    """(attracting point, defining word) pairs for the cyclically reduced
    hyperbolic words up to the given length, sorted by angle. A run of
    points, one and those after it closer than LIMIT_DEDUP_TOL (the
    runs at both ends meet across 0), is one point, with its first word
    in stream order, the shortest, whichever way the angles round.

    Fewer than three distinct points means no free two-generator dynamics
    was seen; the group is reported elementary (raise the depth first if
    the group is merely thin at this depth).
    """
    theta, codes, _ = _limit_rows(group, depth, spell=True)
    return [(BoundaryPoint(t), Word([group.alphabet[c] for c in row if c >= 0]))
            for t, row in zip(theta.tolist(), codes.tolist())]


def load_group_file(path):
    """Plain text group file: kind=... once, generator=a b c d per line
    (row-major), dedup_tol=... optional for custom, a tolerance relative
    to the matrix magnitude."""
    kind = None
    gens = []
    dedup_tol = 1e-8
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidInput("bad group file line: %r" % line)
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if key == "kind":
                kind = value
            elif key == "generator":
                nums = [float(v) for v in value.replace(",", " ").split()]
                if len(nums) != 4:
                    raise InvalidInput("generator needs 4 numbers, got %r" % value)
                gens.append(np.array(nums).reshape(2, 2))
            elif key == "dedup_tol":
                dedup_tol = float(value)
            else:
                raise InvalidInput("unknown group file key %r" % key)
    if kind == "modular":
        return modular_group()
    if kind == "free_schottky":
        return free_schottky(gens)
    if kind == "custom":
        return custom_group(gens, dedup_tol=dedup_tol)
    raise InvalidInput("group file must set kind to free_schottky, modular or custom")
