"""Doubling a Schottky group across boundary axis reflections.

A rank-2 Schottky group whose generator axes are disjoint is a pair of
pants; reflecting across the three boundary axes embeds it in a larger
group whose orientation preserving part strictly contains the original.
On the matrix side each reflection becomes a conjugated sign
involution, and the extended letter table keeps the two-by-two factor
structure, so Cartan data and flags of long doubled words stay on the
stable evaluation route. A reflection's letter and its factor are one
formula, _framed_reflection, on one eigenframe.

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
from .flags import Flag, _eigenbasis, _loxodromic_frames, flag_distance
from .hypdisc import (
    BoundaryPoint,
    Mobius,
    _eigenframes,
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
    evaluate,
    sym_power_matrix,
)
from .words import GroupSpec, Word, _walk_levels, free_schottky

# letters offered to reflections, skipping any the base alphabet uses
REFLECTION_LETTERS = "xyzuvw"

SQUARE_TOL = 1e-10
ENDPOINT_TOL = 1e-9
FLAG_FIX_TOL = 1e-9
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


def _framed_reflection(frame):
    """diag(1, -1) in the basis of a 2x2 eigenframe (hypdisc._eigenframes)."""
    return frame @ np.diag([1.0, -1.0]) @ np.linalg.inv(frame)


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
    frame = _eigenframes(gamma.mat[np.newaxis])[0]
    # taken as built, unscaled: the factor double_rep keeps for the same
    # frame, so a doubled walk's products are its level matrices
    return Reflection(Mobius._normalized(_framed_reflection(frame), -1),
                      fixed_points(gamma))


def x_involution(d):
    """Sign involution diag(+1, -1, +1, ...) of size d.

    Conjugation by it negates every superdiagonal elementary matrix,
    fixes diagonals, and squares to the identity.
    """
    if d < 2:
        raise InvalidInput("the sign involution needs dimension >= 2")
    return np.diag([(-1.0) ** j for j in range(d)])


def _check_involution(mat, label):
    d = mat.shape[0]
    err = float(np.abs(mat @ mat - np.eye(d)).max())
    scale = max(1.0, float(np.abs(mat).max()) ** 2)
    if err > SQUARE_TOL * scale:
        raise InvalidInput(
            "reflection image of %s squares %.3g away from the identity"
            % (label, err)
        )


def _check_fixes_flags(big, basis, label):
    """Both flags of the eigenbasis must be fixed by the conjugated
    involution.

    Column rescaling of the basis, sign flips included, cancels against
    the diagonal involution, so one check covers every eigenbasis
    normalization; failing it means no sign pattern works.
    """
    d = basis.shape[0]
    worst = 0.0
    for cols in (basis, basis[:, ::-1]):
        fixed = Flag(cols)
        moved = Flag(big @ cols)
        for k in range(1, d):
            worst = max(worst, flag_distance(fixed.piece(k), moved.piece(k)))
    if worst > FLAG_FIX_TOL:
        raise InvalidInput(
            "no eigenbasis sign pattern makes the reflection fix both "
            "boundary flags of %s (distance %.3g)" % (label, worst)
        )


class DoubledRep:
    """A representation extended by boundary reflection letters.

    base is the original table; boundary the words whose axes carry the
    reflections; letters one fresh letter per boundary word; rep the
    extended Representation. Restricting rep to the base alphabet gives
    back base exactly, and every reflection image squares to the
    identity projectively.
    """

    __slots__ = ("base", "boundary", "letters", "reflection_images", "rep")

    def __init__(self, base, boundary, letters, reflection_images,
                 reflection_factors=None):
        boundary = tuple(boundary)
        letters = tuple(letters)
        reflection_images = [np.asarray(m, dtype=float) for m in reflection_images]
        if not (len(boundary) == len(letters) == len(reflection_images)):
            raise InvalidInput("boundary words, letters and images must align")
        if len(set(letters)) != len(letters):
            raise InvalidInput("reflection letters repeat")
        for c in letters:
            if c in base.images:
                raise InvalidInput("letter %r is already taken by the base" % c)
        for c, mat in zip(letters, reflection_images):
            _check_involution(mat, c)
        images = {k: v for k, v in base.images.items()}
        for c, mat in zip(letters, reflection_images):
            images[c] = mat
        factors = None
        if (base.factors is not None and len(base.factors) == 1
                and reflection_factors is not None
                and all(f is not None for f in reflection_factors)):
            dfac, table = base.factors[0]
            ext = dict(table)
            for c, f in zip(letters, reflection_factors):
                ext[c] = np.asarray(f, dtype=float)
            factors = ((dfac, ext),)
        self.base = base
        self.boundary = boundary
        self.letters = letters
        self.reflection_images = reflection_images
        self.rep = Representation(
            base.dim, base.lie_type, images, base.label + " doubled",
            verified=base.verified, factors=factors,
        )
        # the determinant renormalization above ripples the last ulp;
        # restriction to the base alphabet must be the base table itself
        for k, v in base.images.items():
            self.rep.images[k] = v

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


def _as_word(w):
    return w if isinstance(w, Word) else Word(tuple(w))


def double_rep(rep, boundary_elements):
    """Extend a representation by one reflection per boundary element.

    Each boundary word's image gets the conjugated sign involution
    R = g x g^-1, where g is its eigenbasis with columns in decreasing
    eigenvalue order; the attracting flag then sits on leading
    coordinate subspaces, the repelling flag on trailing ones, and R
    fixes both. Representations with a single two-by-two factor keep
    that structure: the reflection's factor is the framed diag(1, -1),
    whose symmetric power is R itself. Any other representation takes
    g from flags._eigenbasis, as limit_flags' dense route does, so it is
    refused where that route would be: complex eigenvalues, or
    consecutive moduli within a ratio of 1 + flags.LOG_GAP_MIN.
    """
    boundary = [_as_word(w) for w in boundary_elements]
    d = rep.dim
    x = x_involution(d)
    letters = [c for c in REFLECTION_LETTERS if c not in rep.images]
    if len(letters) < len(boundary):
        raise InvalidInput("not enough free letters for the reflections")
    letters = letters[: len(boundary)]
    structural = (rep.factors is not None and len(rep.factors) == 1
                  and rep.factors[0][0] == rep.dim)
    images = []
    factor_mats = []
    for w in boundary:
        if structural:
            product = _word_product(rep.factors[0][1], w, rep.label)
            frame = _loxodromic_frames(product[np.newaxis])[0]
            basis = sym_power_matrix(frame, d)
            factor = _framed_reflection(frame)
        else:
            basis = _eigenbasis(evaluate(rep, w).mat)
            factor = None
        big = basis @ x @ np.linalg.inv(basis)
        _check_involution(big, str(w))
        _check_fixes_flags(big, basis, str(w))
        images.append(big)
        factor_mats.append(factor)
    return DoubledRep(rep, boundary, letters, images, factor_mats)


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
    own inverse, with the reflection across its boundary word's axis as
    image. Elements are deduplicated by words._scaled_key at DEDUP_TOL, which
    can merge distinct far-apart elements, so the enumeration is
    non-exhaustive by construction.
    """
    if group.kind != "free_schottky" or len(group.alphabet) != 4:
        raise InvalidInput("doubling covers rank-2 Schottky groups")
    reflections = [
        reflection_across_axis(Mobius._normalized(
            _word_product(group.generator_matrices(), w, group.kind), 1))
        for w in doubled.boundary
    ]
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

