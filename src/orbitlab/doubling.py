"""Doubling a Schottky group across boundary axis reflections.

A rank-2 Schottky group whose generator axes are disjoint is a pair of
pants; reflecting across the three boundary axes embeds it in a larger
group whose orientation preserving part strictly contains the original.
On the matrix side each reflection becomes a conjugated sign
involution, and the extended letter table keeps the two-by-two factor
structure, so Cartan data and flags of long doubled words stay on the
stable evaluation route.

The doubled ball is the walk of words.enumerate_elements run on a
GroupSpec of kind doubled: the base letters plus one self-inverse letter
per reflection, whose image is the reflection's orientation reversing
Mobius value. Orientation is the reflection parity of a word, so the
orientation preserving elements are the words of even parity.
"""

import math

import numpy as np

from .critexp import _frontier_sample
from .errors import (
    InvalidInput,
    OverlappingAxes,
    SpectrumNotLoxodromic,
)
from .flags import Flag, _loxodromic_frame, flag_distance
from .hypdisc import (
    BoundaryPoint,
    Mobius,
    angular_distance,
    apply_boundary,
    classify,
    displacement,
    fixed_points,
    wrap_angle,
)
from .reps import Representation, ScaledMatrix, evaluate, sym_power_matrix
from .words import GroupSpec, Word, _walk_rows, free_schottky

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


def reflection_across_axis(gamma):
    """Reflection across the axis of a hyperbolic Mobius value.

    The fixed directions of gamma frame the involution diag(1, -1), so
    both axis endpoints stay fixed while the complementary boundary arcs
    trade places.
    """
    if gamma.orientation != 1:
        raise InvalidInput("reflection axes come from orientation preserving values")
    kind = classify(gamma)
    if kind != "hyperbolic":
        raise InvalidInput("reflection needs a hyperbolic value, got %s" % kind)
    plus, minus = fixed_points(gamma)
    frame = np.column_stack([plus.direction(), minus.direction()])
    mat = frame @ np.diag([1.0, -1.0]) @ np.linalg.inv(frame)
    return Reflection(Mobius(mat), (plus, minus))


def x_involution(d):
    """Sign involution diag(+1, -1, +1, ...) of size d.

    Conjugation by it negates every superdiagonal elementary matrix,
    fixes diagonals, and squares to the identity.
    """
    if d < 2:
        raise InvalidInput("the sign involution needs dimension >= 2")
    return np.diag([(-1.0) ** j for j in range(d)])


def _eigenbasis_descending(mat, tol=1e-9):
    """Real eigenbasis with columns ordered by decreasing eigenvalue
    modulus; collisions and complex spectra are rejected."""
    lam, vec = np.linalg.eig(np.asarray(mat, dtype=float))
    top = float(np.abs(lam).max())
    if top == 0.0:
        raise SpectrumNotLoxodromic("zero spectrum")
    if float(np.abs(lam.imag).max()) > tol * top:
        raise SpectrumNotLoxodromic("complex eigenvalues block a real eigenbasis")
    lam = lam.real
    order = np.argsort(-np.abs(lam))
    lam = lam[order]
    vec = vec[:, order].real
    for i in range(len(lam) - 1):
        if abs(lam[i]) - abs(lam[i + 1]) <= tol * abs(lam[i]):
            raise SpectrumNotLoxodromic(
                "eigenvalue moduli %d and %d are not separated" % (i, i + 1)
            )
    return vec / np.linalg.norm(vec, axis=0, keepdims=True)


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
        for k, v in base.images.items():
            if not np.array_equal(self.rep.images[k], v):
                raise InvalidInput("doubled table no longer restricts to the base")

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
    whose symmetric power is R itself.
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
            _, table = rep.factors[0]
            m2 = np.eye(2)
            for letter in w.letters:
                if letter not in table:
                    raise InvalidInput(
                        "letter %r has no image under %s" % (letter, rep.label)
                    )
                m2 = m2 @ table[letter]
            frame = _loxodromic_frame(m2)
            basis = sym_power_matrix(frame, d)
            factor = frame @ np.diag([1.0, -1.0]) @ np.linalg.inv(frame)
        else:
            basis = _eigenbasis_descending(evaluate(rep, w).mat)
            factor = None
        big = basis @ x @ np.linalg.inv(basis)
        _check_involution(big, str(w))
        _check_fixes_flags(big, basis, str(w))
        images.append(big)
        factor_mats.append(factor)
    return DoubledRep(rep, boundary, letters, images, factor_mats)


def _axes_disjoint(pair_a, pair_b, tol=AXIS_TOL):
    """Whether two boundary endpoint pairs bound disjoint geodesics:
    no shared endpoint and no interleaving around the circle."""
    angles_a = [wrap_angle(p.theta) for p in pair_a]
    angles_b = [wrap_angle(p.theta) for p in pair_b]
    for ta in angles_a:
        for tb in angles_b:
            if angular_distance(ta, tb) <= tol:
                return False
    start = angles_a[0]
    span = (angles_a[1] - start) % (2.0 * math.pi)
    inside = sum(1 for tb in angles_b if 0.0 < (tb - start) % (2.0 * math.pi) < span)
    return inside != 1


def _group_word_image(group, word):
    mob = Mobius.identity()
    for letter in word:
        mob = mob @ group.image(letter)
    return mob


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
        reflection_across_axis(_group_word_image(group, w))
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
        inverse_letter, False, dedup_tol=DEDUP_TOL,
    )


def enumerate_doubled(group, doubled, max_len):
    """Stream (word, Mobius, ScaledMatrix image) over the doubled ball.

    The ball is the walk of enumerate_elements on the doubled GroupSpec,
    and only its orientation preserving elements (even reflection
    parity) are emitted. The walk carries doubled.rep's table, so each
    image is the product evaluate(doubled.rep, word) would build, taken
    from the parent's product and one letter. With no boundary elements
    the stream matches the plain enumeration of the group. Deduplication
    rounds the Mobius matrix at DEDUP_TOL, which makes the enumeration
    non-exhaustive.
    """
    spec = _doubled_group(group, doubled)
    for word, mob, level, i in _walk_rows(spec, max_len, [doubled.rep.images]):
        if mob.orientation == 1:
            mats, log_scales = level.products[0]
            yield word, mob, ScaledMatrix._normalized(mats[i], float(log_scales[i]))


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


def write_doubled_csv(rows, path):
    """CSV of doubled enumeration rows: word, displacement, refl_parity.

    Emitted elements preserve orientation, so refl_parity is always 0;
    the column is kept to make the parity filter visible in the output.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("word,displacement,refl_parity\n")
        for word, mob, _ in rows:
            parity = 0 if mob.orientation == 1 else 1
            fh.write("%s,%.17g,%d\n" % (word, displacement(mob), parity))
