"""Doubling a Schottky group across boundary axis reflections.

A rank-2 Schottky group whose generator axes are disjoint is a pair of
pants; reflecting across the three boundary axes embeds it in a larger
group whose orientation preserving part strictly contains the original.
Doubling covers symmetric-power representations, whose images come
from one two-by-two factor table. Each boundary word gives one
Reflection, built once by double_rep from the word's product in that
table: its matrix is the reflection letter's factor, so Cartan data and
flags of long doubled words stay on the stable evaluation route, and
its symmetric power is the letter's image, a conjugated sign
involution. The doubled group reads the same Reflection for the
letter's Mobius value and axis endpoints.

The doubled ball is the walk of words.enumerate_elements run on a
GroupSpec of kind doubled: the base letters plus one self-inverse letter
per reflection, whose image is the reflection's orientation reversing
Mobius value. Orientation is the reflection parity of a word, so the
orientation preserving elements are the words of even parity.
"""

import math

import numpy as np

from .critexp import _frontier_sample
from .errors import InvalidInput, OverlappingAxes
from .hypdisc import (
    BoundaryPoint,
    Mobius,
    _eigenvectors,
    angular_distance,
    apply_boundary,
    classify,
    fixed_points,
    wrap_angle,
)
from .reps import (
    Representation,
    ScaledMatrix,
    _word_product,
    sym_power_matrix,
)
from .words import GroupSpec, Word, _walk_levels, free_schottky

# letters offered to reflections, skipping any the base alphabet uses
REFLECTION_LETTERS = "xyzuvw"

SQUARE_TOL = 1e-10
ENDPOINT_TOL = 1e-9
DEDUP_TOL = 1e-8
AXIS_TOL = 1e-9

# conjugacy representatives of the three pair-of-pants boundary curves
PANTS_BOUNDARY = ("a", "b", "BA")


def hyperbolic_with_axis(attracting, repelling, length):
    """Hyperbolic Mobius value with the given boundary fixed angles and
    translation length, attracting endpoint first."""
    if length <= 0.0:
        raise InvalidInput("translation length must be positive")
    wp = BoundaryPoint(attracting).direction()
    wm = BoundaryPoint(repelling).direction()
    frame = np.column_stack([wp, wm])
    if abs(np.linalg.det(frame)) < 1e-12:
        raise InvalidInput("axis endpoints coincide")
    s = 0.5 * length
    mat = frame @ np.diag([math.exp(s), math.exp(-s)]) @ np.linalg.inv(frame)
    return Mobius(mat)


def separated_schottky(translation_length=4.0):
    """Pair-of-pants Schottky group on two generators whose axes span the
    angle pairs (0, pi/2) and (pi, 3pi/2).

    The axis endpoint pairs do not interleave, so the generator axes are
    disjoint and the boundary elements a, b, (ab)^-1 carry pairwise
    disjoint axes; ping-pong separation is certified by the constructor.
    """
    a = hyperbolic_with_axis(0.0, 0.5 * math.pi, translation_length)
    b = hyperbolic_with_axis(math.pi, 1.5 * math.pi, translation_length)
    return free_schottky([a, b])


class Reflection:
    """Orientation reversing involution of the disc fixing a geodesic.

    mob is the projective matrix, endpoints the fixed boundary pair of
    the axis. The square must be the identity projectively.
    """

    __slots__ = ("mob", "endpoints")

    def __init__(self, mob, endpoints):
        if mob.orientation != -1:
            raise InvalidInput("a reflection must reverse orientation")
        if not (mob @ mob).is_identity(SQUARE_TOL):
            raise InvalidInput("reflection square is not the identity")
        endpoints = tuple(endpoints)
        if len(endpoints) != 2:
            raise InvalidInput("an axis has exactly two boundary endpoints")
        for bp in endpoints:
            moved = apply_boundary(mob, bp)
            if angular_distance(moved.theta, bp.theta) > ENDPOINT_TOL:
                raise InvalidInput(
                    "claimed axis endpoint %.6g is moved by the reflection"
                    % bp.theta
                )
        self.mob = mob
        self.endpoints = endpoints

    def __repr__(self):
        return "Reflection(endpoints=(%.6g, %.6g))" % (
            self.endpoints[0].theta,
            self.endpoints[1].theta,
        )


def reflection_across_axis(gamma):
    """Reflection across the axis of a hyperbolic Mobius value.

    The eigenframe of gamma frames the involution diag(1, -1), so both
    axis endpoints stay fixed while the complementary boundary arcs
    trade places.
    """
    if gamma.orientation != 1:
        raise InvalidInput("reflection axes come from orientation preserving values")
    kind = classify(gamma)
    if kind != "hyperbolic":
        raise InvalidInput("reflection needs a hyperbolic value, got %s" % kind)
    frame = np.column_stack([v[0] for v in _eigenvectors(gamma.mat[np.newaxis])])
    # taken as built, unscaled: double_rep keeps this matrix as the
    # letter's factor, so a doubled walk's products are its level matrices
    mat = frame @ np.diag([1.0, -1.0]) @ np.linalg.inv(frame)
    return Reflection(Mobius._normalized(mat, -1), fixed_points(gamma))


def _factor_table(rep):
    """(dimension, letter-to-2x2 table) of a representation whose one
    two-by-two factor has the rep's own dimension: a symmetric power."""
    if rep.factors is None or len(rep.factors) != 1 or rep.factors[0][0] != rep.dim:
        raise InvalidInput("doubling needs a symmetric-power representation, got %s"
                           % rep.label)
    return rep.factors[0]


class DoubledRep:
    """A symmetric-power representation extended by boundary reflection
    letters.

    base is the original representation; boundary the words whose axes
    carry the reflections; letters one fresh letter per boundary word;
    reflections one Reflection per boundary word; rep the extended
    Representation. A reflection letter's two-by-two factor is its
    reflection's matrix, and its image the symmetric power of that
    matrix. Restricting rep to the base alphabet gives back base
    exactly.
    """

    __slots__ = ("base", "boundary", "letters", "reflections", "rep")

    def __init__(self, base, boundary, letters, reflections):
        dfac, table = _factor_table(base)
        boundary = tuple(boundary)
        letters = tuple(letters)
        reflections = tuple(reflections)
        if not (len(boundary) == len(letters) == len(reflections)):
            raise InvalidInput("boundary words, letters and reflections must align")
        if len(set(letters)) != len(letters):
            raise InvalidInput("reflection letters repeat")
        for c in letters:
            if c in base.images:
                raise InvalidInput("letter %r is already taken by the base" % c)
        images = dict(base.images)
        factors = dict(table)
        for c, r in zip(letters, reflections):
            factors[c] = r.mob.mat
            images[c] = sym_power_matrix(r.mob.mat, dfac)
        self.base = base
        self.boundary = boundary
        self.letters = letters
        self.reflections = reflections
        self.rep = Representation(
            base.dim, base.lie_type, images, base.label + " doubled",
            verified=base.verified, factors=((dfac, factors),),
        )
        # the determinant renormalization above ripples the last ulp;
        # every image stays as built: the base letters' are the base
        # table, the reflection letters' the symmetric powers of their
        # factors
        self.rep.images.update(images)

    @property
    def reflection_images(self):
        return [self.rep.images[c] for c in self.letters]

    @property
    def dim(self):
        return self.base.dim

    @property
    def alphabet(self):
        return tuple(self.rep.images)

    def __repr__(self):
        return "DoubledRep(%s, boundary=%s)" % (
            self.base.label,
            ",".join(str(w) for w in self.boundary),
        )


def double_rep(rep, boundary_elements):
    """Extend a symmetric-power representation by one Reflection per
    boundary element, across the axis of the word's product in the
    rep's two-by-two table.

    The symmetric power is a homomorphism, so each letter's image is the
    sign involution diag(1, -1, 1, ...) conjugated by the symmetric
    power of the word's eigenframe, and fixes both boundary flags. Any
    other representation, or a boundary word whose product is not
    hyperbolic, raises InvalidInput.
    """
    boundary = [w if isinstance(w, Word) else Word(tuple(w)) for w in boundary_elements]
    _, table = _factor_table(rep)
    letters = [c for c in REFLECTION_LETTERS if c not in rep.images]
    if len(letters) < len(boundary):
        raise InvalidInput("not enough free letters for the reflections")
    reflections = [
        reflection_across_axis(Mobius._normalized(_word_product(table, w, rep.label), 1))
        for w in boundary
    ]
    return DoubledRep(rep, boundary, letters[: len(boundary)], reflections)


def _axes_disjoint(pair_a, pair_b):
    """Whether two boundary endpoint pairs bound disjoint geodesics:
    no endpoints within AXIS_TOL and no interleaving around the circle."""
    angles_a = [wrap_angle(p.theta) for p in pair_a]
    angles_b = [wrap_angle(p.theta) for p in pair_b]
    for ta in angles_a:
        for tb in angles_b:
            if angular_distance(ta, tb) <= AXIS_TOL:
                return False
    start = angles_a[0]
    span = (angles_a[1] - start) % (2.0 * math.pi)
    inside = sum(1 for tb in angles_b if 0.0 < (tb - start) % (2.0 * math.pi) < span)
    return inside != 1


def _doubled_group(group, doubled):
    """The reflection-extended group as a GroupSpec of kind doubled.

    The base letters keep their images; each reflection letter is its
    own inverse, with doubled's Reflection for its boundary word as
    image, the one whose matrix is the letter's factor in doubled.rep.
    Elements are deduplicated by words._scaled_key at DEDUP_TOL, which
    can merge distinct far-apart elements, so the enumeration is
    non-exhaustive by construction.
    """
    if group.kind != "free_schottky" or len(group.alphabet) != 4:
        raise InvalidInput("doubling covers rank-2 Schottky groups")
    reflections = doubled.reflections
    for i in range(len(reflections)):
        for j in range(i + 1, len(reflections)):
            if not _axes_disjoint(reflections[i].endpoints, reflections[j].endpoints):
                raise OverlappingAxes(
                    "axes of boundary elements %s and %s meet"
                    % (doubled.boundary[i], doubled.boundary[j])
                )
    images = dict(group.images)
    inverse_letter = dict(group.inverse_letter)
    for c, r in zip(doubled.letters, reflections):
        images[c] = r.mob
        inverse_letter[c] = c
    return GroupSpec(
        "doubled", list(group.alphabet) + list(doubled.letters), images,
        inverse_letter, dedup_tol=DEDUP_TOL,
    )


def enumerate_doubled(group, doubled, max_len):
    """Stream (word, Mobius, ScaledMatrix image) over the doubled ball.

    The ball is the walk of words._walk_levels on the doubled GroupSpec,
    and only its orientation preserving elements (even reflection
    parity) are emitted. The walk carries doubled.rep's table, so each
    image is the plain product along the word, taken from the parent's
    product and one letter, and the ScaledMatrix is bit for bit
    evaluate(doubled.rep, word). With no boundary elements the stream
    matches the plain enumeration of the group. Deduplication
    rounds the Mobius matrix at DEDUP_TOL, which makes the enumeration
    non-exhaustive.
    """
    spec = _doubled_group(group, doubled)
    for level in _walk_levels(spec, max_len, [doubled.rep.images]):
        for i, mob in level.rows():
            if mob.orientation == 1:
                yield level.word(i), mob, ScaledMatrix(level.products[0][i])


def doubled_value_sample(group, doubled, phi, max_len):
    """Functional values over the orientation preserving doubled ball,
    certified by the length frontier.

    This is sample_from_enumeration's certificate on the doubled
    GroupSpec: frontier and dips are taken over both parities, since
    even words pass through odd prefixes. The rounding dedup leaves the
    enumeration non-exhaustive, and the label says so.
    """
    return _frontier_sample(_doubled_group(group, doubled), doubled.rep, phi,
                            max_len, "doubled %s" % group.kind)

