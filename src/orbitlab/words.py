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
its elements are deduplicated exactly as integer matrices up to overall
sign. custom takes arbitrary generators and deduplicates by rounding, which
can merge distinct elements of a non-discrete group, so enumeration is
flagged non-exhaustive (exact_dedup is False, and certified samples say so
in their label) and a crude discreteness probe only warns. A fourth kind,
doubled, is the reflection extension that the doubling module builds; it
also deduplicates by rounding.

One breadth-first walker serves every kind. _walk_levels keeps the
word tree as arrays, one level per word length: for each row its parent
row and last letter, its Mobius matrix normalized to |det| = 1 with its
orientation, and, for each letter table a caller passes in, the
ScaledMatrix product along the word. A level is built from the one
before with stacked 2x2 products (np.matmul), which round exactly as
one product at a time does. The walker never appends the inverse of a
word's last letter: that gives back the word's parent, already seen,
whatever the relations of the group. Duplicates are dropped with keys
computed a level at a time. enumerate_elements streams the levels as
(Word, Mobius) pairs; samplers that need only values (critexp) read
the arrays directly.

Letters are single characters: generators a, b, c, ... with inverses
A, B, C, ...; the modular alphabet is S (self-inverse), T and its inverse
written t. Enumeration streams words by length, then lexicographically in
the order the alphabet is listed.
"""

import math
import warnings

import numpy as np

from .cartan import word_cartan
from .errors import InvalidInput, NonElementary
from .reps import _times_rows
from .hypdisc import (
    ORIGIN,
    Mobius,
    _unit_det_rows,
    angular_distance,
    classify,
    displacement,
    fixed_points,
    wrap_angle,
)

MODULAR_S = ((0, -1), (1, 0))
MODULAR_T = ((1, 1), (0, 1))

LIMIT_DEDUP_TOL = 1e-12


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
    inverse_letter map; exact_dedup, whether enumeration is guaranteed
    duplicate-free and exhaustive.
    """

    __slots__ = ("kind", "alphabet", "images", "inverse_letter", "exact_dedup",
                 "dedup_tol", "int_images")

    def __init__(self, kind, alphabet, images, inverse_letter, exact_dedup,
                 dedup_tol=None, int_images=None):
        self.kind = kind
        self.alphabet = list(alphabet)
        self.images = dict(images)
        self.inverse_letter = dict(inverse_letter)
        self.exact_dedup = exact_dedup
        self.dedup_tol = dedup_tol
        self.int_images = int_images

    @property
    def n_generators(self):
        return sum(1 for a in self.alphabet if self.inverse_letter[a] != a) // 2 + sum(
            1 for a in self.alphabet if self.inverse_letter[a] == a
        )

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


def free_schottky(generators):
    """Schottky group on hyperbolic generators, ping-pong checked.

    The check is sufficient, not necessary: it uses the contraction arcs
    about the origin, so some discrete free groups are refused. Axes
    ((0.5, 1.2), (3.0, 3.8)) with lengths (0.7, 1.1) give a pants group
    (tr ab = -2.79 with positive lifts), yet the arcs of a and B overlap.
    """
    gens = [g if isinstance(g, Mobius) else Mobius(g) for g in generators]
    if not gens:
        raise InvalidInput("need at least one generator")
    alphabet = []
    images = {}
    inverse_letter = {}
    arcs = []
    for i, g in enumerate(gens):
        if i >= 26:
            raise InvalidInput("at most 26 generators")
        if g.orientation != 1:
            raise InvalidInput("generator %d is orientation reversing" % (i + 1))
        if classify(g) != "hyperbolic":
            raise InvalidInput(
                "generator %d is %s, Schottky generators must be hyperbolic"
                % (i + 1, classify(g))
            )
        lo, up = chr(ord("a") + i), chr(ord("A") + i)
        alphabet += [lo, up]
        images[lo] = g
        images[up] = g.inverse()
        inverse_letter[lo] = up
        inverse_letter[up] = lo
        arcs.append((lo, _contraction_arc(g)))
        arcs.append((up, _contraction_arc(g.inverse())))
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            (la, (ca, ha)), (lb, (cb, hb)) = arcs[i], arcs[j]
            if angular_distance(ca, cb) <= ha + hb:
                raise InvalidInput(
                    "ping-pong arcs of %s and %s overlap; not a Schottky system"
                    % (la, lb)
                )
    return GroupSpec("free_schottky", alphabet, images, inverse_letter, True)


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
    int_images = {
        "S": MODULAR_S,
        "T": MODULAR_T,
        "t": ((1, -1), (0, 1)),
    }
    return GroupSpec(
        "modular", ["S", "T", "t"], images, inverse_letter, True,
        int_images=int_images,
    )


def custom_group(generators, dedup_tol=1e-8):
    """Arbitrary generators; duplicates are merged by rounding at dedup_tol
    and enumeration is therefore flagged non-exhaustive."""
    gens = [g if isinstance(g, Mobius) else Mobius(g) for g in generators]
    if not gens:
        raise InvalidInput("need at least one generator")
    alphabet = []
    images = {}
    inverse_letter = {}
    for i, g in enumerate(gens):
        if i >= 26:
            raise InvalidInput("at most 26 generators")
        lo, up = chr(ord("a") + i), chr(ord("A") + i)
        alphabet += [lo, up]
        images[lo] = g
        images[up] = g.inverse()
        inverse_letter[lo] = up
        inverse_letter[up] = lo
    group = GroupSpec(
        "custom", alphabet, images, inverse_letter, False, dedup_tol=dedup_tol
    )
    _discreteness_probe(group)
    return group


def _discreteness_probe(group, depth=6, margin=1e-3):
    """Crude probe: a short nonempty reduced word landing very close to the
    identity suggests a non-discrete or badly conditioned group."""
    for word, mob in enumerate_elements(group, depth):
        if len(word) == 0:
            continue
        m = mob.mat if mob.mat[0, 0] >= 0 else -mob.mat
        if np.abs(m - np.eye(2)).max() < margin:
            warnings.warn(
                "word %s is within %.1e of the identity; the group may be "
                "non-discrete and enumeration incomplete" % (word, margin),
                stacklevel=3,
            )
            return


def _int_mul(m, g):
    (a, b), (c, d) = m
    (p, q), (r, s) = g
    return ((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))


def _int_canonical(m):
    flat = (m[0][0], m[0][1], m[1][0], m[1][1])
    for x in flat:
        if x != 0:
            return flat if x > 0 else tuple(-y for y in flat)
    raise InvalidInput("zero matrix")


def _sign_canonical(flat, threshold):
    """Rows (N, 4) negated where the first entry larger than threshold in
    magnitude is negative, so M and -M share a row; rows with no such
    entry are left alone."""
    big = np.abs(flat) > threshold
    lead = flat[np.arange(len(flat)), np.argmax(big, axis=1)]
    flip = big.any(axis=1) & (lead < 0)
    return np.where(flip[:, None], -flat, flat)


def _round_canonical(flat, tol):
    """Rounding keys of rows (N, 4): sign canonical, then each entry
    rounded half-even to a multiple of tol. Keys are integral float64
    values, not int64, which entries past about 1e10 at tol 1e-8 would
    overflow; adding 0.0 folds -0.0 into 0.0."""
    return np.rint(_sign_canonical(flat, 10.0 * tol) / tol) + 0.0


def _scaled_key(flat, tol):
    """Rounding keys at a tolerance relative to the matrix magnitude.

    An absolute grid splits true duplicates once entries grow large:
    the float drift between two multiplication orders scales with the
    entries and eventually straddles grid boundaries. Discreteness of
    the group keeps distinct elements relatively separated, so rounding
    mat / 2^ceil(log2 sup) keeps duplicates together while still only
    merging elements closer than tol in relative terms.
    """
    sup = np.abs(flat).max(axis=1)
    scale = np.ldexp(1.0, np.ceil(np.log2(sup)).astype(int))
    return _round_canonical(flat / scale[:, None], tol)


def _first_new(keys, seen):
    """Positions of the rows of keys equal to no row of seen and to no
    earlier row of keys: a stable sort puts each run of equal rows in
    position order, and only a run's first row survives."""
    both = np.concatenate([seen, keys])
    order = np.lexsort(both.T[::-1])
    ranked = both[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    kept = order[first]
    return np.sort(kept[kept >= len(seen)]) - len(seen)


class _Level:
    """One level of the word tree, as arrays over its rows.

    Row i is the word of row parent[i] one level up, extended by
    alphabet[letter[i]]. mats holds its Mobius matrix normalized to
    |det| = 1 and orientation its orientation; products holds, for each
    letter table walked, the pair (matrices, log scales) of the
    ScaledMatrix product along the word; ints the integer matrix of a
    modular word.
    """

    __slots__ = ("parent", "letter", "mats", "orientation", "products", "ints")

    def __init__(self, parent, letter, mats, orientation, products, ints):
        self.parent = parent
        self.letter = letter
        self.mats = mats
        self.orientation = orientation
        self.products = products
        self.ints = ints

    def __len__(self):
        return len(self.parent)

    def take(self, rows):
        return _Level(
            self.parent[rows], self.letter[rows], self.mats[rows],
            self.orientation[rows], [(m[rows], s[rows]) for m, s in self.products],
            None if self.ints is None else self.ints[rows],
        )


def _walk_levels(group, max_len, tables=()):
    """The word tree of enumerate_elements, one _Level per word length.

    Each level is computed from the one before with stacked products:
    every row is extended by every letter except the inverse of its
    last one (free reduction), so row by row and letter by letter the
    candidates come in stream order. Duplicates are dropped by key,
    exactly for modular (an int64 overflow raises) and by rounding for
    custom and doubled; the first row with a key wins, and rows of
    earlier levels come first. tables are letter-to-matrix dicts whose
    ScaledMatrix products along each word the levels carry as well.
    Walking stops early once a level is empty.
    """
    if max_len < 0:
        raise InvalidInput("max_len must be nonnegative")
    alphabet = group.alphabet
    position = {a: i for i, a in enumerate(alphabet)}
    inverse = np.array([position[group.inverse_letter[a]] for a in alphabet])
    images = np.array([group.images[a].mat for a in alphabet])
    stacks = [np.array([np.asarray(t[a], dtype=float) for a in alphabet])
              for t in tables]
    ints = key_of = None
    if group.kind == "modular":
        ints = np.array([group.int_images[a] for a in alphabet], dtype=np.int64)
        key_of = lambda level: _sign_canonical(level.ints.reshape(-1, 4), 0)
    elif group.kind == "custom":
        key_of = lambda level: _round_canonical(level.mats.reshape(-1, 4),
                                                group.dedup_tol)
    elif group.kind == "doubled":
        key_of = lambda level: _scaled_key(level.mats.reshape(-1, 4),
                                           group.dedup_tol)
    level = _Level(
        np.array([-1]), np.array([-1]), np.eye(2)[np.newaxis], np.array([1]),
        [(np.eye(len(st[0]))[np.newaxis], np.zeros(1)) for st in stacks],
        None if ints is None else np.eye(2, dtype=np.int64)[np.newaxis],
    )
    seen = key_of(level) if key_of else None
    yield level
    for length in range(max_len):
        allowed = np.ones((len(level), len(alphabet)), dtype=bool)
        if length:
            allowed[np.arange(len(level)), inverse[level.letter]] = False
        rows, letters = np.nonzero(allowed)
        mats, orientation = _unit_det_rows(np.matmul(level.mats[rows], images[letters]))
        products = [
            _times_rows(m[rows], s[rows], st[letters])
            for (m, s), st in zip(level.products, stacks)
        ]
        new_ints = None
        if ints is not None:
            grow = 2 * int(np.abs(level.ints).max()) * int(np.abs(ints).max())
            if grow >= 2 ** 63:
                raise InvalidInput(
                    "integer entries overflow 64 bits past word length %d" % length
                )
            new_ints = np.matmul(level.ints[rows], ints[letters])
        level = _Level(rows, letters, mats, orientation, products, new_ints)
        if key_of:
            keys = key_of(level)
            if ints is not None and not np.all(keys.any(axis=1)):
                raise InvalidInput("zero matrix")
            kept = _first_new(keys, seen)
            level = level.take(kept)
            seen = np.concatenate([seen, keys[kept]])
        if not len(level):
            return
        yield level


def _walk_rows(group, max_len, tables=()):
    """(Word, Mobius, level, row) for every element of _walk_levels, in
    stream order; the Mobius value reuses the level's normalized row."""
    alphabet = group.alphabet
    words = [()]
    for length, level in enumerate(_walk_levels(group, max_len, tables)):
        if length:
            words = [words[p] + (alphabet[c],)
                     for p, c in zip(level.parent.tolist(), level.letter.tolist())]
        for i, orientation in enumerate(level.orientation.tolist()):
            yield (Word(words[i]), Mobius._normalized(level.mats[i], orientation),
                   level, i)


def _word_at(levels, alphabet, length, row):
    """The Word of a row of a list of _walk_levels levels, read back
    along its parents."""
    letters = []
    while length:
        level = levels[length]
        letters.append(alphabet[level.letter[row]])
        row = level.parent[row]
        length -= 1
    return Word(reversed(letters))


def enumerate_elements(group, max_len):
    """Stream (Word, Mobius) for each distinct element of word length up to
    max_len, ordered by length then lexicographically by alphabet position.

    Every kind skips the letter that cancels the word's last letter: the
    candidate w l l^-1 is the element w itself, in any group and whatever
    its relations, and w was yielded two levels earlier. So pruning loses
    no element, and the yielded words stay freely reduced. free_schottky
    needs nothing more. modular deduplicates exactly as integer matrices
    up to sign, custom by rounding at its dedup_tol, and doubled (built
    by the doubling module) by rounding relative to the matrix
    magnitude; an element reached by two reduced words keeps the first.
    The elements come from the level arrays of _walk_levels.
    """
    for word, mob, _, _ in _walk_rows(group, max_len):
        yield word, mob


def modular_norm_ball(bound):
    """Every modular element, up to sign, with all entries bounded by the
    given integer in absolute value; exact scan, no enumeration involved.

    Returns a list of (Word, integer matrix) with words rebuilt by the
    Euclidean algorithm. Any element outside the list has top singular
    value exceeding bound, since the top singular value dominates every
    entry; that gives a slack-free completeness threshold 2*log(bound)
    for the first simple root.
    """
    bound = int(bound)
    if bound < 1:
        raise InvalidInput("bound must be a positive integer")
    out = []
    seen = set()
    for a in range(-bound, bound + 1):
        for c in range(-bound, bound + 1):
            if math.gcd(a, c) != 1:
                continue
            # all (b, d) with a d - b c = 1: one solution plus k*(a, c)
            g, x, y = _extended_gcd(a, c)
            if g < 0:
                x, y = -x, -y
            b0, d0 = -y, x
            r1 = _lattice_range(a, b0, bound)
            r2 = _lattice_range(c, d0, bound)
            if r1 is None or r2 is None:
                continue
            lo, hi = max(r1[0], r2[0]), min(r1[1], r2[1])
            if lo > hi:
                continue
            for k in range(lo, hi + 1):
                m = ((a, b0 + k * a), (c, d0 + k * c))
                key = _int_canonical(m)
                if key in seen:
                    continue
                seen.add(key)
                mm = ((key[0], key[1]), (key[2], key[3]))
                out.append((_modular_word(mm), mm))
    out.sort(key=lambda rec: (len(rec[0]), rec[1]))
    return out


def _extended_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _lattice_range(step, base, bound):
    """Integers k with |base + k*step| <= bound, as an inclusive pair."""
    if step == 0:
        return (-(10**9), 10**9) if abs(base) <= bound else None
    q1 = (-bound - base) / step
    q2 = (bound - base) / step
    lo = math.ceil(min(q1, q2))
    hi = math.floor(max(q1, q2))
    if lo > hi:
        return None
    return (lo, hi)


def _modular_word(m):
    """A word in S, T, t multiplying out to the given integer matrix up to
    sign, found by Euclidean reduction of the first column."""
    (a, b), (c, d) = m
    letters = []
    # peel T^q S from the left until the lower-left entry dies
    while c != 0:
        # nearest quotient keeps |a - q c| <= |c|/2, so the column shrinks
        q = round(a / c)
        letters.extend(["T"] * q if q >= 0 else ["t"] * (-q))
        letters.append("S")
        # left-multiply current target by S^{-1} T^{-q}: track remaining matrix
        a, b, c, d = c, d, -(a - q * c), -(b - q * d)
    # now a d = 1 up to sign
    if a < 0:
        a, b, d = -a, -b, -d
    letters.extend(["T"] * b if b >= 0 else ["t"] * (-b))
    word = Word(tuple(letters))
    check = ((1, 0), (0, 1))
    ints = {"S": MODULAR_S, "T": MODULAR_T, "t": ((1, -1), (0, 1))}
    for letter in word:
        check = _int_mul(check, ints[letter])
    if _int_canonical(check) != _int_canonical(m):
        raise InvalidInput("word reconstruction failed for %r" % (m,))
    return word


class OrbitRecord:
    """One group element with its displacement and Cartan data."""

    __slots__ = ("word", "displacement", "kappa", "phi_values", "mob")

    def __init__(self, word, displacement, kappa, phi_values, mob=None):
        self.word = word
        self.displacement = float(displacement)
        self.kappa = kappa
        self.phi_values = dict(phi_values)
        self.mob = mob

    @property
    def length(self):
        return len(self.word)

    def __repr__(self):
        return "OrbitRecord(%s, disp=%.6g)" % (self.word, self.displacement)


def orbit_table(group, rep, max_len, b0=ORIGIN, functionals=()):
    """One OrbitRecord per distinct element up to max_len, in stream order."""
    records = []
    for word, mob in enumerate_elements(group, max_len):
        disp = displacement(mob, b0)
        kv = word_cartan(rep, word)
        values = {
            phi.name(): phi.value(kv) for phi in functionals
        }
        records.append(OrbitRecord(word, disp, kv, values, mob=mob))
    return records


def write_orbit_csv(records, path):
    """Header word,len,disp,k1..kd; 17 significant digits, LF endings."""
    if not records:
        raise InvalidInput("no records to write")
    d = records[0].kappa.d
    cols = ",".join("k%d" % (i + 1) for i in range(d))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("word,len,disp,%s\n" % cols)
        for rec in records:
            lams = ",".join("%.17g" % v for v in rec.kappa.lambdas)
            fh.write("%s,%d,%.17g,%s\n" % (rec.word, rec.length, rec.displacement, lams))


def limit_sample_words(group, depth):
    """(attracting point, defining word) pairs for the cyclically reduced
    hyperbolic words up to the given length, deduplicated and sorted by
    angle; ties keep the shortest defining word.

    Fewer than three distinct points means no free two-generator dynamics
    was seen; the group is reported elementary (raise the depth first if
    the group is merely thin at this depth).
    """
    pairs = []
    for word, mob in enumerate_elements(group, depth):
        if len(word) == 0:
            continue
        first, last = word.letters[0], word.letters[-1]
        if len(word) > 1 and group.inverse_letter[last] == first:
            continue
        if classify(mob) != "hyperbolic":
            continue
        pairs.append((fixed_points(mob)[0], word))
    pairs.sort(key=lambda pw: pw[0].theta)
    distinct = []
    for p, w in pairs:
        if (
            not distinct
            or angular_distance(distinct[-1][0].theta, p.theta) > LIMIT_DEDUP_TOL
        ):
            distinct.append((p, w))
    if len(distinct) >= 2 and angular_distance(
        distinct[0][0].theta, distinct[-1][0].theta
    ) <= LIMIT_DEDUP_TOL:
        distinct.pop()
    if len(distinct) <= 2:
        raise NonElementary(
            "only %d accumulation points at depth %d; a non-elementary group "
            "shows at least 3 (raise depth if the group should qualify)"
            % (len(distinct), depth)
        )
    return distinct


def limit_sample(group, depth):
    """Attracting fixed points only; see limit_sample_words."""
    return [p for p, _ in limit_sample_words(group, depth)]


def load_group_file(path):
    """Plain text group file: kind=... once, generator=a b c d per line
    (row-major), dedup_tol=... optional for custom."""
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
