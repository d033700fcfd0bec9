import math

import numpy as np
import pytest

from orbitlab.cartan import factor_values, parse_functional, word_cartan
from orbitlab.doubling import (
    PANTS_BOUNDARY,
    _doubled_group,
    double_rep,
    separated_schottky,
)
from orbitlab.errors import InvalidInput, NonElementary
from orbitlab.hypdisc import (
    ORIGIN,
    DiscPoint,
    Mobius,
    angular_distance,
    apply_boundary,
    apply_isometry,
    dist_h,
    displacement,
)
from orbitlab.reps import sp_product, sym_power
from orbitlab.words import (
    MODULAR_S,
    MODULAR_T,
    Word,
    _int_canonical,
    _int_mul,
    _walk_levels,
    _walk_rows,
    custom_group,
    enumerate_elements,
    free_schottky,
    limit_sample,
    load_group_file,
    modular_group,
    modular_norm_ball,
    orbit_table,
    standard_schottky,
    write_orbit_csv,
)

TWO_LOG_PHI = 0.96242365011920694

INT_IMAGES = {"S": MODULAR_S, "T": MODULAR_T, "t": ((1, -1), (0, 1))}


def int_matrix_of(word):
    m = ((1, 0), (0, 1))
    for letter in word:
        m = _int_mul(m, INT_IMAGES[letter])
    return m


def brute_box(bound):
    """Oracle: all det-1 integer matrices with entries in [-bound, bound],
    up to sign, by exhaustive scan."""
    out = set()
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c == 1:
                        out.add(_int_canonical(((a, b), (c, d))))
    return out


class TestGroupConstruction:
    def test_standard_schottky_passes_ping_pong(self):
        g = standard_schottky(4.0)
        assert g.kind == "free_schottky"
        assert g.alphabet == ["a", "A", "b", "B"]

    def test_elliptic_generator_rejected(self):
        with pytest.raises(InvalidInput):
            free_schottky([Mobius.rotation(1.0), Mobius.boost(2.0)])

    def test_parabolic_generator_rejected(self):
        with pytest.raises(InvalidInput):
            free_schottky([Mobius(np.array([[1.0, 1.0], [0.0, 1.0]]))])

    def test_same_axis_boosts_rejected(self):
        with pytest.raises(InvalidInput) as err:
            free_schottky([Mobius.boost(2.0), Mobius.boost(4.0)])
        assert "overlap" in str(err.value)

    def test_weak_translation_rejected(self):
        # arcs of half angle 2*asin(1/sqrt(s^2+1)) overlap when boosts are soft
        with pytest.raises(InvalidInput):
            standard_schottky(0.5)

    def test_modular_group_tables(self):
        g = modular_group()
        assert g.inverse_letter == {"S": "S", "T": "t", "t": "T"}
        assert g.exact_dedup

    def test_custom_non_discrete_warns(self):
        with pytest.warns(UserWarning, match="non-discrete"):
            custom_group([Mobius.rotation(1e-4)])


class TestEnumerate:
    def test_free_rank2_ball_counts(self):
        g = standard_schottky(4.0)
        counts = {}
        for word, _ in enumerate_elements(g, 2):
            counts[len(word)] = counts.get(len(word), 0) + 1
        assert counts == {0: 1, 1: 4, 2: 12}
        assert sum(counts.values()) == 17

    def test_max_len_zero(self):
        for g in (standard_schottky(4.0), modular_group()):
            items = list(enumerate_elements(g, 0))
            assert len(items) == 1
            assert str(items[0][0]) == "e"
            assert items[0][1].is_identity()

    def test_small_entry_classes(self):
        # every modular element with entries in {-1,0,1}, up to sign
        want = brute_box(1)
        assert len(want) == 10
        got = set()
        for word, _ in enumerate_elements(modular_group(), 6):
            m = int_matrix_of(word)
            if max(abs(x) for row in m for x in row) <= 1:
                got.add(_int_canonical(m))
        assert got == want

    def test_modular_box_equivalence(self):
        # enumeration agrees with the exhaustive integer scan on a box
        want = brute_box(2)
        got = set()
        for word, _ in enumerate_elements(modular_group(), 10):
            m = int_matrix_of(word)
            if max(abs(x) for row in m for x in row) <= 2:
                got.add(_int_canonical(m))
        assert got == want

    def test_modular_no_duplicates(self):
        seen = set()
        for word, _ in enumerate_elements(modular_group(), 8):
            key = _int_canonical(int_matrix_of(word))
            assert key not in seen
            seen.add(key)

    def test_words_are_reduced(self):
        pants = separated_schottky(2.0)
        doubled = _doubled_group(
            pants, double_rep(sym_power(3)(pants.generator_matrices()), PANTS_BOUNDARY)
        )
        rotation = custom_group([Mobius.rotation(2.0 * math.pi / 5.0)])
        for g, depth in ((modular_group(), 7), (rotation, 12), (doubled, 4)):
            for word, _ in enumerate_elements(g, depth):
                for u, v in zip(word.letters, word.letters[1:]):
                    assert g.inverse_letter[u] != v

    def test_stream_deterministic_and_ordered(self):
        g = standard_schottky(4.0)
        run1 = [str(w) for w, _ in enumerate_elements(g, 3)]
        run2 = [str(w) for w, _ in enumerate_elements(g, 3)]
        assert run1 == run2
        lens = [len(w) for w, _ in enumerate_elements(g, 3)]
        assert lens == sorted(lens)
        pos = {ch: i for i, ch in enumerate(g.alphabet)}
        by_len = {}
        for w, _ in enumerate_elements(g, 3):
            by_len.setdefault(len(w), []).append([pos[c] for c in w.letters])
        for seq in by_len.values():
            assert seq == sorted(seq)

    def test_word_matrices_multiply_out(self):
        g = standard_schottky(4.0)
        for word, mob in enumerate_elements(g, 3):
            prod = Mobius.identity()
            for letter in word:
                prod = prod @ g.image(letter)
            assert prod.almost_equal(mob, tol=1e-10)

    def test_custom_finite_rotation_group(self):
        # projective order 5 rotation: exactly 5 distinct elements ever
        g = custom_group([Mobius.rotation(2.0 * math.pi / 5.0)])
        assert not g.exact_dedup
        items = list(enumerate_elements(g, 12))
        assert len(items) == 5


def _oracle_round(mat, tol):
    flat = mat.ravel()
    for x in flat:
        if abs(x) > 10.0 * tol:
            if x < 0:
                flat = -flat
            break
    return tuple(int(round(v / tol)) for v in flat)


def _oracle_scaled(mat, tol):
    sup = float(np.abs(mat).max())
    scaled = mat / math.ldexp(1.0, math.ceil(math.log2(sup)))
    return _oracle_round(scaled, tol)


def oracle_elements(group, max_len):
    """The per-word breadth-first walk the level arrays replaced: each
    element multiplied out as a Mobius product of its parent and one
    letter, deduplicated one key at a time."""
    ints = group.int_images
    if group.kind == "modular":
        key_of = lambda mob, intm: _int_canonical(intm)
    elif group.kind == "custom":
        key_of = lambda mob, intm: _oracle_round(mob.mat, group.dedup_tol)
    elif group.kind == "doubled":
        key_of = lambda mob, intm: _oracle_scaled(mob.mat, group.dedup_tol)
    else:
        key_of = None
    first = (Word(), Mobius.identity(), ((1, 0), (0, 1)) if ints else None)
    seen = {key_of(first[1], first[2])} if key_of else None
    out = [first[:2]]
    frontier = [first]
    for _ in range(max_len):
        nxt = []
        for word, mob, intm in frontier:
            last = word.letters[-1] if word.letters else None
            for letter in group.alphabet:
                if last is not None and group.inverse_letter[last] == letter:
                    continue
                new_mob = mob @ group.images[letter]
                new_int = _int_mul(intm, ints[letter]) if ints else None
                if key_of:
                    key = key_of(new_mob, new_int)
                    if key in seen:
                        continue
                    seen.add(key)
                new_word = Word(word.letters + (letter,))
                nxt.append((new_word, new_mob, new_int))
                out.append((new_word, new_mob))
        frontier = nxt
    return out


def _doubled_spec():
    pants = separated_schottky(2.0)
    rep = sym_power(3)(pants.generator_matrices(), label="sym3")
    return _doubled_group(pants, double_rep(rep, PANTS_BOUNDARY))


class TestLevelWalker:
    @pytest.mark.parametrize("build, max_len, count", [
        pytest.param(modular_group, 10, 748, id="modular-L10"),
        pytest.param(lambda: custom_group([Mobius.rotation(2.0 * math.pi / 5.0)]),
                     12, 5, id="rotation-L12"),
        pytest.param(standard_schottky, 6, 1457, id="schottky-L6"),
        pytest.param(_doubled_spec, 5, 6901, id="doubled-depth5"),
    ])
    def test_matches_the_per_word_walk(self, build, max_len, count):
        group = build()
        got = list(enumerate_elements(group, max_len))
        want = oracle_elements(group, max_len)
        assert len(got) == len(want) == count
        for (gw, gm), (ww, wm) in zip(got, want):
            assert gw == ww
            assert np.array_equal(gm.mat, wm.mat)
            assert gm.orientation == wm.orientation

    @pytest.mark.parametrize("text", ["a1", "a2", "w1", "2*a1+1*a2"])
    def test_sym3_values_match_word_cartan(self, text):
        group = standard_schottky()
        rep = sym_power(3)(group.generator_matrices(), label="sym3")
        self._check_values(group, rep, parse_functional(text), 5)

    def test_sp_product_long_values_match_word_cartan(self):
        group = standard_schottky()
        slow = standard_schottky(3.0)
        sym2 = sym_power(2)
        rep = sp_product([
            sym2({c: group.image(c).mat for c in "abAB"}, label="f4"),
            sym2({c: slow.image(c).mat for c in "abAB"}, label="f3"),
        ])
        self._check_values(group, rep, parse_functional("long"), 5)

    def test_doubled_values_match_word_cartan(self):
        pants = separated_schottky(2.0)
        dbl = double_rep(sym_power(3)(pants.generator_matrices(), label="sym3"),
                         PANTS_BOUNDARY)
        self._check_values(_doubled_group(pants, dbl), dbl.rep,
                           parse_functional("a1"), 4)

    @staticmethod
    def _check_values(group, rep, phi, max_len):
        tables = [images for _, images in rep.factors]
        checked = 0
        for word, _, level, i in _walk_rows(group, max_len, tables):
            batched = factor_values(rep, phi, level.products)[i]
            direct = phi.value(word_cartan(rep, word))
            assert abs(batched - direct) <= 1e-12 * max(1.0, abs(direct)), str(word)
            checked += 1
        assert checked > 100

    def test_modular_key_overflow_raises(self):
        # T T has upper-left entry 2^64 - 1, past int64; it must not wrap
        big = ((2 ** 32, 1), (-1, 0))
        assert _int_mul(big, big)[0][0] >= 2 ** 63
        group = modular_group()
        group.int_images = {"S": MODULAR_S, "T": big, "t": ((0, -1), (1, 2 ** 32))}
        with pytest.raises(InvalidInput, match="overflow"):
            list(enumerate_elements(group, 3))

    def test_levels_stop_when_a_finite_group_is_exhausted(self):
        group = custom_group([Mobius.rotation(2.0 * math.pi / 5.0)])
        sizes = [len(level) for level in _walk_levels(group, 12)]
        assert sizes == [1, 2, 2]


class TestNormBall:
    def test_matches_brute_scan(self):
        for bound in (1, 2, 3, 5):
            got = {_int_canonical(m) for _, m in modular_norm_ball(bound)}
            assert got == brute_box(bound)

    def test_ten_unit_classes(self):
        assert len(modular_norm_ball(1)) == 10

    def test_words_rebuild_matrices(self):
        for word, m in modular_norm_ball(4):
            assert _int_canonical(int_matrix_of(word)) == _int_canonical(m)

    def test_entries_bounded_by_top_singular_value(self):
        for _, m in modular_norm_ball(3):
            arr = np.array(m, dtype=float)
            s1 = np.linalg.svd(arr, compute_uv=False)[0]
            assert max(abs(x) for row in m for x in row) <= s1 + 1e-9

    def test_bad_bound(self):
        with pytest.raises(InvalidInput):
            modular_norm_ball(0)


class TestOrbitTable:
    def test_identity_record(self):
        g = modular_group()
        rep = sym_power(2)(g.generator_matrices())
        recs = orbit_table(g, rep, 0, ORIGIN)
        assert len(recs) == 1
        assert recs[0].displacement == 0.0
        assert np.allclose(recs[0].kappa.lambdas, 0.0, atol=1e-12)

    def test_modular_word_T(self):
        g = modular_group()
        rep = sym_power(2)(g.generator_matrices())
        phi = parse_functional("a1")
        recs = orbit_table(g, rep, 1, ORIGIN, functionals=[phi])
        by_word = {str(r.word): r for r in recs}
        rec = by_word["T"]
        t_mob = g.image("T")
        want = dist_h(ORIGIN, apply_isometry(t_mob, ORIGIN))
        assert rec.displacement == pytest.approx(want, abs=1e-11)
        assert rec.phi_values["a1"] == pytest.approx(TWO_LOG_PHI, abs=1e-12)

    def test_schottky_generator_powers(self):
        g = free_schottky([Mobius(np.diag([math.e, 1.0 / math.e]))])
        rep = sym_power(2)(g.generator_matrices())
        phi = parse_functional("a1")
        recs = orbit_table(g, rep, 4, ORIGIN, functionals=[phi])
        for rec in recs:
            if set(rec.word.letters) == {"a"}:
                n = rec.length
                assert rec.phi_values["a1"] == pytest.approx(2.0 * n, abs=1e-10)

    def test_kappa_sums_to_zero(self):
        g = standard_schottky(4.0)
        rep = sym_power(3)(g.generator_matrices())
        for rec in orbit_table(g, rep, 3, ORIGIN):
            assert abs(rec.kappa.lambdas.sum()) <= 1e-9

    def test_displacement_matches_point_route(self):
        g = standard_schottky(2.0)
        rep = sym_power(2)(g.generator_matrices())
        b0 = DiscPoint(0.2, -0.1)
        for rec, (word, mob) in zip(
            orbit_table(g, rep, 2, b0), enumerate_elements(g, 2)
        ):
            if rec.displacement < 12:
                want = dist_h(b0, apply_isometry(mob, b0))
                assert rec.displacement == pytest.approx(want, abs=1e-9)

    def test_long_words_do_not_overflow(self):
        g = standard_schottky(4.0)
        rep = sym_power(2)(g.generator_matrices())
        recs = orbit_table(g, rep, 5, ORIGIN)
        assert all(np.isfinite(r.displacement) for r in recs)
        assert max(r.displacement for r in recs) > 17.0

    def test_displacement_grows_linearly(self):
        g = standard_schottky(4.0)
        rep = sym_power(2)(g.generator_matrices())
        recs = orbit_table(g, rep, 5, ORIGIN)
        for rec in recs:
            assert rec.displacement >= 3.0 * rec.length - 3.0

    def test_csv_format(self, tmp_path):
        g = modular_group()
        rep = sym_power(2)(g.generator_matrices())
        recs = orbit_table(g, rep, 1, ORIGIN)
        out = tmp_path / "orbit.csv"
        write_orbit_csv(recs, str(out))
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "word,len,disp,k1,k2"
        assert lines[1].startswith("e,0,0,")
        assert len(lines) == len(recs) + 1
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        t_row = next(r for r in rows if r["word"] == "T")
        assert float(t_row["disp"]) > 0
        assert float(t_row["k1"]) == pytest.approx(0.5 * TWO_LOG_PHI, abs=1e-12)


class TestLimitSample:
    def test_schottky_depth1_four_points(self):
        pts = limit_sample(standard_schottky(4.0), 1)
        assert len(pts) == 4
        want = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]
        got = sorted(p.theta for p in pts)
        for g_val, w_val in zip(got, want):
            assert angular_distance(g_val, w_val) <= 1e-9

    def test_points_sorted_and_distinct(self):
        pts = limit_sample(standard_schottky(4.0), 3)
        thetas = [p.theta for p in pts]
        assert thetas == sorted(thetas)
        assert all(b - a > 1e-12 for a, b in zip(thetas, thetas[1:]))

    def test_points_fixed_by_defining_words(self):
        g = standard_schottky(4.0)
        from orbitlab.hypdisc import classify, fixed_points

        for word, mob in enumerate_elements(g, 3):
            if len(word) == 0:
                continue
            if len(word) > 1 and g.inverse_letter[word.letters[-1]] == word.letters[0]:
                continue
            if classify(mob) != "hyperbolic":
                continue
            fp = fixed_points(mob)[0]
            img = apply_boundary(mob, fp)
            assert angular_distance(img.theta, fp.theta) <= 1e-8

    def test_modular_gaps_shrink(self):
        def max_gap(depth):
            pts = limit_sample(modular_group(), depth)
            thetas = sorted(p.theta for p in pts)
            gaps = [b - a for a, b in zip(thetas, thetas[1:])]
            gaps.append(2.0 * math.pi - thetas[-1] + thetas[0])
            return max(gaps)

        g4, g6, g8 = max_gap(4), max_gap(6), max_gap(8)
        assert g4 >= g6 >= g8
        assert g8 < g4

    def test_single_generator_elementary(self):
        g = free_schottky([Mobius.boost(3.0)])
        with pytest.raises(NonElementary):
            limit_sample(g, 4)


class TestGroupFile:
    def test_round_trip_schottky(self, tmp_path):
        s = math.exp(2.0)
        path = tmp_path / "group.txt"
        path.write_text(
            "kind=free_schottky\n"
            "generator=%r 0.0 0.0 %r\n"
            "# axis rotated by pi/2\n"
            "generator=%r %r %r %r\n"
            % (
                s,
                1.0 / s,
                0.5 * (s + 1 / s),
                0.5 * (s - 1 / s),
                0.5 * (s - 1 / s),
                0.5 * (s + 1 / s),
            ),
            encoding="utf-8",
        )
        g = load_group_file(str(path))
        assert g.kind == "free_schottky"
        assert len(g.alphabet) == 4

    def test_modular_file(self, tmp_path):
        path = tmp_path / "group.txt"
        path.write_text("kind=modular\n", encoding="utf-8")
        assert load_group_file(str(path)).kind == "modular"

    def test_bad_file(self, tmp_path):
        path = tmp_path / "group.txt"
        path.write_text("kind=heisenberg\n", encoding="utf-8")
        with pytest.raises(InvalidInput):
            load_group_file(str(path))


class TestDisplacementFunction:
    def test_matches_point_distance_when_small(self):
        m = Mobius.boost(1.0)
        assert displacement(m) == pytest.approx(1.0, abs=1e-12)
        b0 = DiscPoint(0.3, 0.2)
        want = dist_h(b0, apply_isometry(m, b0))
        assert displacement(m, b0) == pytest.approx(want, abs=1e-10)

    def test_large_translations_finite(self):
        m = Mobius.boost(200.0)
        assert displacement(m) == pytest.approx(200.0, rel=1e-12)

    def test_identity_is_zero(self):
        assert displacement(Mobius.identity()) == 0.0
