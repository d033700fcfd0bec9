import math

import numpy as np
import pytest
from buildtools import boost, dense_sym_power, doubled_sym3, two_speed_product
from kleintools import DiscPoint, apply_isometry, dist_h

import orbitlab.words as words
from orbitlab.cartan import _cartan_rows, parse_functional, word_cartan
from orbitlab.critexp import sample_from_enumeration, sample_from_norm_ball
from orbitlab.doubling import (
    PANTS_BOUNDARY,
    _doubled_group,
    double_rep,
    hyperbolic_with_axis,
    separated_schottky,
)
from orbitlab.errors import InvalidInput, NonElementary
from orbitlab.hypdisc import (
    TWO_PI,
    BoundaryPoint,
    Mobius,
    _half_lengths,
    angular_distance,
    apply_boundary,
    classify,
    displacement,
    fixed_points,
)
from orbitlab.reps import _word_product, sym_power
from orbitlab.words import (
    LIMIT_DEDUP_TOL,
    MODULAR_S,
    MODULAR_T,
    GroupSpec,
    Word,
    _limit_runs,
    _walk_levels,
    custom_group,
    enumerate_elements,
    free_schottky,
    limit_sample_words,
    load_group_file,
    modular_group,
    modular_norm_ball,
    orbit_table,
    standard_schottky,
)

TWO_LOG_PHI = 0.96242365011920694

ORIGIN = DiscPoint(0.0, 0.0)

INT_IMAGES = {"S": MODULAR_S, "T": MODULAR_T, "t": ((1, -1), (0, 1))}


def int_mul(m, g):
    (a, b), (c, d) = m
    (p, q), (r, s) = g
    return ((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))


def int_canonical(m):
    """Row-major entries of an integer matrix, negated if the first
    nonzero one is negative, so M and -M share a key."""
    flat = tuple(int(x) for row in m for x in row)
    for x in flat:
        if x != 0:
            return flat if x > 0 else tuple(-y for y in flat)
    raise ValueError("zero matrix")


def int_matrix_of(word):
    m = ((1, 0), (0, 1))
    for letter in word:
        m = int_mul(m, INT_IMAGES[letter])
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
                        out.add(int_canonical(((a, b), (c, d))))
    return out


class TestGroupConstruction:
    def test_standard_schottky_passes_ping_pong(self):
        g = standard_schottky(4.0)
        assert g.kind == "free_schottky"
        assert g.alphabet == ["a", "A", "b", "B"]

    def test_elliptic_generator_rejected(self):
        with pytest.raises(InvalidInput):
            free_schottky([Mobius.rotation(1.0), boost(2.0)])

    def test_parabolic_generator_rejected(self):
        with pytest.raises(InvalidInput):
            free_schottky([Mobius(np.array([[1.0, 1.0], [0.0, 1.0]]))])

    def test_same_axis_boosts_rejected(self):
        with pytest.raises(InvalidInput) as err:
            free_schottky([boost(2.0), boost(4.0)])
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
                got.add(int_canonical(m))
        assert got == want

    def test_modular_box_equivalence(self):
        # enumeration agrees with the exhaustive integer scan on a box
        want = brute_box(2)
        got = set()
        for word, _ in enumerate_elements(modular_group(), 10):
            m = int_matrix_of(word)
            if max(abs(x) for row in m for x in row) <= 2:
                got.add(int_canonical(m))
        assert got == want

    def test_modular_no_duplicates(self):
        seen = set()
        for word, _ in enumerate_elements(modular_group(), 8):
            key = int_canonical(int_matrix_of(word))
            assert key not in seen
            seen.add(key)

    def test_words_are_reduced(self):
        doubled, _ = doubled_sym3(2.0)
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
            prod = Mobius(np.eye(2))
            for letter in word:
                prod = prod @ g.image(letter)
            assert prod.orientation == mob.orientation
            assert min(np.abs(prod.mat - mob.mat).max(),
                       np.abs(prod.mat + mob.mat).max()) <= 1e-10

    def test_custom_finite_rotation_group(self):
        # projective order 5 rotation: exactly 5 distinct elements ever
        g = custom_group([Mobius.rotation(2.0 * math.pi / 5.0)])
        assert not g.exact_dedup
        items = list(enumerate_elements(g, 12))
        assert len(items) == 5


def _oracle_scaled(mat, tol):
    flat = mat.ravel()
    lead = flat[int(np.argmax(np.abs(flat)))]
    return (tuple(int(round(v / lead / tol)) for v in flat)
            + (int(round(math.log(abs(lead)) / tol)),))


def oracle_elements(group, max_len):
    """The per-word breadth-first walk the level arrays replaced: each
    element multiplied out as a Mobius product of its parent and one
    letter, deduplicated one key at a time."""
    ints = INT_IMAGES if group.kind == "modular" else None
    if group.kind == "modular":
        key_of = lambda mob, intm: int_canonical(intm)
    elif group.kind in ("custom", "doubled"):
        key_of = lambda mob, intm: _oracle_scaled(mob.mat, group.dedup_tol)
    else:
        key_of = None
    first = (Word(), Mobius(np.eye(2)), ((1, 0), (0, 1)) if ints else None)
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
                new_int = int_mul(intm, ints[letter]) if ints else None
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


class TestLevelWalker:
    @pytest.mark.parametrize("build, max_len, count", [
        pytest.param(modular_group, 10, 748, id="modular-L10"),
        pytest.param(lambda: custom_group([Mobius.rotation(2.0 * math.pi / 5.0)]),
                     12, 5, id="rotation-L12"),
        pytest.param(standard_schottky, 6, 1457, id="schottky-L6"),
        pytest.param(lambda: doubled_sym3(2.0)[0], 5, 6898, id="doubled-depth5"),
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
        self._check_values(group, two_speed_product(group), parse_functional("long"), 5)

    def test_doubled_values_match_word_cartan(self):
        self._check_values(*doubled_sym3(2.0), parse_functional("a1"), 4)

    @staticmethod
    def _check_values(group, rep, phi, max_len):
        checked = 0
        for level in _walk_levels(group, max_len, rep.tables):
            values = phi.values(_cartan_rows(rep, level.products), rep.lie_type)
            for i, batched in enumerate(values):
                word = level.word(i)
                direct = phi.value(word_cartan(rep, word))
                assert abs(batched - direct) <= 1e-12 * max(1.0, abs(direct)), word
                checked += 1
        assert checked > 100

    def test_modular_key_overflow_raises(self):
        # T T has upper-left entry 2^54 - 1, which a float64 row cannot
        # hold; the walk must raise before it keys on a rounded row
        big = ((2 ** 27, 1), (-1, 0))
        assert int_mul(big, big)[0][0] >= 2 ** 53
        group = modular_group()
        group.images["T"] = Mobius(np.array(big, dtype=float))
        group.images["t"] = Mobius(np.array(((0, -1), (1, 2 ** 27)), dtype=float))
        with pytest.raises(InvalidInput, match=r"2\^53"):
            list(enumerate_elements(group, 3))

    @pytest.mark.parametrize("kind", ["custom", "doubled"])
    def test_rounding_keys_keep_the_magnitude(self, kind):
        # a^10 and a^11 of a length-2 boost scale to one row; the key
        # keeps them apart by log |lead|
        alphabet, images, inverse_letter = words._free_tables([boost(2.0)])
        group = GroupSpec(kind, alphabet, images, inverse_letter, dedup_tol=1e-8)
        got = [str(w) for w, _ in enumerate_elements(group, 14)]
        assert len(got) == 29
        assert got[-2:] == ["a" * 14, "A" * 14]

    def test_levels_stop_when_a_finite_group_is_exhausted(self):
        group = custom_group([Mobius.rotation(2.0 * math.pi / 5.0)])
        sizes = [len(level) for level in _walk_levels(group, 12)]
        assert sizes == [1, 2, 2]

    def test_long_schottky_rows_keep_their_orientation(self):
        # a determinant of the length-11 products cancels; the walk takes
        # none and multiplies the letters' orientations
        levels = list(_walk_levels(standard_schottky(), 11))
        assert [len(level) for level in levels] == [1] + [4 * 3 ** k for k in range(11)]
        assert all(np.all(level.orientation == 1) for level in levels)

    def test_length_ten_sample_keeps_every_element(self):
        group = standard_schottky()
        rep = sym_power(3)(group.generator_matrices(), label="sym3")
        vs = sample_from_enumeration(group, rep, parse_functional("a1"), 10)
        assert len(vs) == 1 + sum(4 * 3 ** (k - 1) for k in range(1, 11)) == 118097

    def test_custom_powers_are_exact_integers(self):
        # entries of the length-36 powers reach about 2^50, far past where
        # a determinant of the rows cancels
        group = custom_group([[[2, 1], [1, 1]]])
        steps = {"a": ((2, 1), (1, 1)), "A": ((1, -1), (-1, 2))}
        rows = list(enumerate_elements(group, 36))
        assert len(rows) == 73
        for word, mob in rows:
            want = ((1, 0), (0, 1))
            for letter in word:
                want = int_mul(want, steps[letter])
            assert np.array_equal(mob.mat, np.array(want, dtype=float)), str(word)


def test_modular_float_keys_match_integer_keys():
    # the walk keys modular levels on their float rows, the oracle on
    # exact integer products
    got = list(enumerate_elements(modular_group(), 12))
    want = oracle_elements(modular_group(), 12)
    assert len(got) == len(want) == 1968
    for (gw, gm), (ww, wm) in zip(got, want):
        assert gw == ww
        assert np.array_equal(gm.mat, wm.mat)


def byte_sort_first_new(keys, seen):
    """The dedup the hash sort replaced, kept as the oracle of
    words._first_new: a stable sort of the rows as raw bytes puts each
    run of equal rows in position order, and a run's first row survives."""
    both = np.concatenate([seen, keys])
    rows = both.view(np.dtype((np.void, both.itemsize * both.shape[1]))).ravel()
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    kept = order[first]
    return np.sort(kept[kept >= len(seen)]) - len(seen)


def _order_four_custom():
    # a b is the quarter turn, so (ab)^2 = (BA)^2 and the walk meets
    # duplicates from length 4 on, past the discreteness probe's reach
    a = boost(3.0)
    return custom_group([a, a.inverse() @ Mobius.rotation(0.5 * math.pi)])


def synthetic_dedup_cases():
    """(keys, seen) pairs of rounding-key rows, free of -0.0 and NaN."""
    rng = np.random.default_rng(41)
    seen = np.rint(rng.normal(size=(30, 5)) * 1e8)
    level = np.rint(rng.normal(size=(40, 5)) * 1e8)
    inside = level[rng.integers(0, 40, size=60)]
    against = np.concatenate([level, seen[rng.integers(0, 30, size=25)]])
    repeated = np.concatenate([level, np.repeat(level[:1] + 7.0, 50, axis=0)])
    unit = np.repeat(level[:8], 2, axis=0)
    unit[np.arange(1, 16, 2), np.arange(8) % 5] += 1.0
    ulp = np.repeat(level[:8], 2, axis=0)
    ulp[1::2, 2] = np.nextafter(ulp[1::2, 2], np.inf)
    # a rounding key's leading entry is often exactly 1 / tol
    lead, lead_seen = level.copy(), seen.copy()
    lead[:, 0] = lead_seen[:, 0] = 1e8
    cases = {
        "inside-one-level": (inside, seen),
        "one-leading-column": (np.concatenate([lead, lead_seen[:9]]), lead_seen),
        "against-seen": (rng.permutation(against), seen),
        "repeated-50-shuffled": (rng.permutation(repeated), seen),
        "one-unit-apart": (unit, seen),
        "one-ulp-apart": (ulp, seen),
        "empty-keys": (level[:0], seen),
        "one-row": (level[:1], seen),
        "one-row-seen": (seen[3:4], seen),
        "empty-seen": (inside, seen[:0]),
        "modular-rows": (np.rint(rng.normal(size=(200, 4)) * 3.0) + 0.0,
                         np.rint(rng.normal(size=(50, 4)) * 3.0) + 0.0),
    }
    return [pytest.param(keys, old, id=name) for name, (keys, old) in cases.items()]


class TestHashDedup:
    """words._first_new against the byte sort it replaced."""

    @pytest.mark.parametrize("build, max_len", [
        pytest.param(lambda: doubled_sym3(1.85)[0], 6, id="doubled-1.85-depth6"),
        pytest.param(lambda: doubled_sym3(2.0)[0], 6, id="doubled-2.0-depth6"),
        pytest.param(modular_group, 9, id="modular-depth9"),
        pytest.param(_order_four_custom, 9, id="custom-depth9"),
    ])
    def test_walk_levels_match_the_byte_sort(self, monkeypatch, build, max_len):
        group, calls = build(), []
        hashed = words._first_new
        monkeypatch.setattr(words, "_first_new",
                            lambda keys, seen: calls.append((keys, seen)) or hashed(keys, seen))
        list(_walk_levels(group, max_len))
        monkeypatch.undo()
        assert len(calls) == max_len
        assert sum(len(keys) - len(hashed(keys, seen)) for keys, seen in calls) > 100
        # the walks' keys never collide, so the byte sort is never reached
        fallback = []
        monkeypatch.setattr(words, "_first_new_bytes",
                            lambda keys, seen: fallback.append(1))
        for keys, seen in calls:
            assert np.array_equal(hashed(keys, seen), byte_sort_first_new(keys, seen))
        assert not fallback
        monkeypatch.undo()
        self._check_collisions(monkeypatch, calls)

    @pytest.mark.parametrize("keys, seen", synthetic_dedup_cases())
    def test_edge_cases_match_the_byte_sort(self, monkeypatch, keys, seen):
        got = words._first_new(keys, seen)
        assert got.dtype.kind == "i"
        assert np.array_equal(got, byte_sort_first_new(keys, seen))
        self._check_collisions(monkeypatch, [(keys, seen)])

    @staticmethod
    def _check_collisions(monkeypatch, calls):
        # a zero multiplier hashes every row to 0: every pair collides,
        # and the equality check must send each call to the byte sort
        fallback = []
        byte_sort = words._first_new_bytes
        monkeypatch.setattr(words, "_HASH_MULT", np.uint64(0))
        monkeypatch.setattr(words, "_first_new_bytes",
                            lambda keys, seen: fallback.append(1) or byte_sort(keys, seen))
        distinct = 0
        for keys, seen in calls:
            assert np.array_equal(words._first_new(keys, seen),
                                  byte_sort_first_new(keys, seen))
            distinct += len(np.unique(np.concatenate([seen, keys]), axis=0)) > 1
        assert len(fallback) == distinct
        monkeypatch.undo()

    def test_a_run_keeps_its_least_position(self):
        # a run's first row is its least position, not its first in the
        # sort: a plain argsort may order equal hashes either way
        keys = np.repeat(np.arange(3.0)[:, np.newaxis], 4000, axis=0)
        keys = np.random.default_rng(5).permutation(np.tile(keys, (1, 5)))
        want = [int(np.flatnonzero(keys[:, 0] == v)[0]) for v in (0.0, 1.0, 2.0)]
        assert words._first_new(keys, keys[:0]).tolist() == sorted(want)


class TestSharedTables:
    """A letter table equal to the images has the level matrices as its
    products."""

    @staticmethod
    def _walks():
        # the doubled walks share only when the group's reflection letters
        # are the rep's reflection factors bit for bit
        angle = -0.17
        rotated = free_schottky([
            hyperbolic_with_axis(angle, angle + 0.5 * math.pi, 1.85),
            hyperbolic_with_axis(angle + math.pi, angle + 1.5 * math.pi, 1.85)])
        walks = []
        for pants, label in ((separated_schottky(1.85), "1.85"),
                             (separated_schottky(2.0), "2.0"),
                             (rotated, "1.85 rotated")):
            sym3 = sym_power(3)(pants.generator_matrices(), label="sym3")
            doubled = double_rep(sym3, PANTS_BOUNDARY)
            walks += [(pants, sym3.tables, "sym3 " + label),
                      (_doubled_group(pants, doubled), doubled.rep.tables,
                       "doubled " + label)]
        return walks

    def test_an_equal_table_is_the_level_matrices(self):
        for group, tables, label in self._walks():
            levels = list(_walk_levels(group, 5, tables))
            assert len(levels) == 6
            for level in levels:
                assert level.products[0] is level.mats, label

    @staticmethod
    def _other_walks():
        # the sp-product's factor tables and a dense sym3 table
        group = standard_schottky()
        rep, dense = two_speed_product(group), dense_sym_power(group, 3)
        return [(group, rep.tables, "sp-product"), (group, dense.tables, "dense sym3")]

    def test_other_tables_are_not_shared(self):
        for group, tables, _ in self._other_walks():
            for level in _walk_levels(group, 4, tables):
                assert level.products[-1] is not level.mats
                assert level.products[-1].shape[1:] == (tables[-1]["a"].shape)

    def test_shared_rows_are_the_word_products(self):
        # every table's rows, shared or not, and a modular walk's
        modular = modular_group()
        walks = self._walks() + self._other_walks() + [
            (modular, sym_power(3)(modular.generator_matrices()).tables, "modular sym3")]
        rng = np.random.default_rng(17)
        for group, tables, label in walks:
            for level in _walk_levels(group, 6, tables):
                for i in rng.choice(len(level), size=min(len(level), 40), replace=False):
                    word = level.word(i)
                    for table, products in zip(tables, level.products):
                        want = _word_product(table, word, label,
                                             len(next(iter(table.values()))))
                        assert products[i].tobytes() == want.tobytes(), (label, str(word))

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_extend_is_the_stacked_product(self, d):
        # the walk's products rest on the large-gemm kernel rounding as
        # the per-matrix one does; a BLAS that rounds otherwise fails here
        rng = np.random.default_rng(d)
        for n in (1, 2, 5, 64, 777, 5000):
            for letters in (1, 4, 6):
                scale = np.exp(rng.uniform(-20.0, 20.0, size=(n + letters, 1, 1)))
                prev = rng.normal(size=(n, d, d)) * scale[:n]
                stack = rng.normal(size=(letters, d, d)) * scale[n:]
                picks = np.sort(rng.choice(n * letters, size=max(1, n * letters * 2 // 3),
                                           replace=False))
                rows, cols = np.divmod(picks, letters)
                want = np.matmul(prev[rows], stack[cols])
                assert words._extend(prev, stack, picks).tobytes() == want.tobytes(), (n, letters)

    def test_level_arrays_are_read_only(self):
        for group, tables, _ in self._walks():
            level = list(_walk_levels(group, 2, tables))[-1]
            for array in (level.parent, level.codes, level.mats,
                          level.orientation, *level.products):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0


class TestNormBall:
    def test_matches_brute_scan(self):
        for bound in (1, 2, 3, 5, 8):
            got = {int_canonical(m) for m in modular_norm_ball(bound)}
            assert got == brute_box(bound)

    def test_ten_unit_classes(self):
        assert len(modular_norm_ball(1)) == 10

    def test_rows_are_canonical_and_distinct(self):
        ball = modular_norm_ball(80)
        assert ball.shape == (31_450, 2, 2)
        assert ball.dtype == np.int64
        assert all(int_canonical(m) == tuple(m.ravel().tolist()) for m in ball)
        assert len(np.unique(ball.reshape(-1, 4), axis=0)) == len(ball)
        dets = ball[:, 0, 0] * ball[:, 1, 1] - ball[:, 0, 1] * ball[:, 1, 0]
        assert np.all(dets == 1)
        assert np.abs(ball).max() == 80

    def test_values_match_svd(self):
        phi = parse_functional("a1")
        got = sample_from_norm_ball(450, 3, phi).values
        ball = modular_norm_ball(450).astype(float)
        # sym3 of a 2x2 matrix with top singular value s1 has a1 = 2 log s1
        logs = np.log(np.linalg.svd(ball, compute_uv=False)[:, 0])
        want = np.sort(np.maximum(2.0 * logs, 0.0))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, want))

    def test_entries_bounded_by_top_singular_value(self):
        for m in modular_norm_ball(3):
            s1 = np.linalg.svd(m.astype(float), compute_uv=False)[0]
            assert np.abs(m).max() <= s1 + 1e-9

    def test_bad_bound(self):
        with pytest.raises(InvalidInput):
            modular_norm_ball(0)

    def test_orbit_count_follows_the_lattice_law(self):
        # PSL2(Z)\H has area pi/3, so the number N(T) of elements that
        # move o by at most T is 6 (cosh T - 1) up to the lattice-point
        # error O(e^(2T/3)) (Huber 1959; Iwaniec, ch. 12); the ball holds
        # every element up to displacement 2 log 150 = 10.02
        ball = modular_norm_ball(150)
        assert len(ball) == 109_722 and 2.0 * math.log(150) > 10.0
        dist = 2.0 * _half_lengths(ball.astype(float))
        counts = [int(np.count_nonzero(dist <= t)) for t in range(4, 11)]
        assert counts == [162, 442, 1242, 3274, 8874, 24194, 65802]
        for t, count in zip(range(4, 11), counts):
            assert abs(count - 6.0 * (math.cosh(t) - 1.0)) <= math.exp(2.0 * t / 3.0)


class TestOrbitTable:
    def test_identity_record(self):
        g = modular_group()
        rep = sym_power(2)(g.generator_matrices())
        recs = orbit_table(g, rep, 0)
        assert len(recs) == 1
        assert recs[0].displacement == 0.0
        assert np.allclose(recs[0].kappa.lambdas, 0.0, atol=1e-12)

    def test_modular_word_T(self):
        g = modular_group()
        rep = sym_power(2)(g.generator_matrices())
        phi = parse_functional("a1")
        recs = orbit_table(g, rep, 1)
        by_word = {str(r.word): r for r in recs}
        rec = by_word["T"]
        t_mob = g.image("T")
        want = dist_h(ORIGIN, apply_isometry(t_mob, ORIGIN))
        assert rec.displacement == pytest.approx(want, abs=1e-11)
        assert phi.value(rec.kappa) == pytest.approx(TWO_LOG_PHI, abs=1e-12)

    def test_schottky_generator_powers(self):
        g = free_schottky([Mobius(np.diag([math.e, 1.0 / math.e]))])
        rep = sym_power(2)(g.generator_matrices())
        phi = parse_functional("a1")
        recs = orbit_table(g, rep, 4)
        for rec in recs:
            if set(rec.word.letters) == {"a"}:
                n = rec.length
                assert phi.value(rec.kappa) == pytest.approx(2.0 * n, abs=1e-10)

    def test_kappa_sums_to_zero(self):
        g = standard_schottky(4.0)
        rep = sym_power(3)(g.generator_matrices())
        for rec in orbit_table(g, rep, 3):
            assert abs(rec.kappa.lambdas.sum()) <= 1e-9

    def test_displacement_matches_point_route(self):
        g = standard_schottky(2.0)
        rep = sym_power(2)(g.generator_matrices())
        for rec, (word, mob) in zip(
            orbit_table(g, rep, 2), enumerate_elements(g, 2)
        ):
            if rec.displacement < 12:
                want = dist_h(ORIGIN, apply_isometry(mob, ORIGIN))
                assert rec.displacement == pytest.approx(want, abs=1e-9)

    def test_long_words_do_not_overflow(self):
        g = standard_schottky(4.0)
        rep = sym_power(2)(g.generator_matrices())
        recs = orbit_table(g, rep, 5)
        assert all(np.isfinite(r.displacement) for r in recs)
        assert max(r.displacement for r in recs) > 17.0

    def test_displacement_grows_linearly(self):
        g = standard_schottky(4.0)
        rep = sym_power(2)(g.generator_matrices())
        recs = orbit_table(g, rep, 5)
        for rec in recs:
            assert rec.displacement >= 3.0 * rec.length - 3.0

    @pytest.mark.parametrize("start_len", [0, 3, 6])
    def test_start_len_forms_only_the_tail(self, start_len, monkeypatch):
        # the shorter levels are walked, but reach no Cartan routine
        g = modular_group()
        rep = sym_power(3)(g.generator_matrices())
        phi = parse_functional("a1")
        full = list(words._orbit_records(g, rep, 6, 0))
        sizes = []

        def spy(rep, products):
            sizes.append(len(products[0]))
            return _cartan_rows(rep, products)

        monkeypatch.setattr(words, "_cartan_rows", spy)
        tail = list(words._orbit_records(g, rep, 6, start_len))
        want = [rec for rec in full if rec.length >= start_len]
        assert sizes == [sum(1 for rec in want if rec.length == n)
                         for n in range(start_len, 7)]
        assert len(tail) == len(want) > 0
        for got, rec in zip(tail, want):
            assert (str(got.word), got.displacement, phi.value(got.kappa)) == (
                str(rec.word), rec.displacement, phi.value(rec.kappa))
            assert np.array_equal(got.kappa.lambdas, rec.kappa.lambdas)
            assert np.array_equal(got.mob.mat, rec.mob.mat)

    def test_csv_format(self):
        g = modular_group()
        rep = sym_power(2)(g.generator_matrices())
        recs = orbit_table(g, rep, 1)
        text = words._orbit_csv_header(rep.dim) + "".join(
            words._orbit_csv_row(rec) for rec in recs)
        lines = text.splitlines()
        assert lines[0] == "word,len,disp,k1,k2"
        assert lines[1].startswith("e,0,0,")
        assert len(lines) == len(recs) + 1
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        t_row = next(r for r in rows if r["word"] == "T")
        assert float(t_row["disp"]) > 0
        assert float(t_row["k1"]) == pytest.approx(0.5 * TWO_LOG_PHI, abs=1e-12)


def oracle_limit_candidates(group, depth):
    """(attracting point, word) of each cyclically reduced hyperbolic
    word up to depth, in stream order, one Mobius value at a time, with
    the attracting point formula hypdisc read before _eigenvectors."""
    out = []
    for word, mob in enumerate_elements(group, depth):
        if len(word) == 0:
            continue
        if len(word) > 1 and group.inverse_letter[word.letters[-1]] == word.letters[0]:
            continue
        if classify(mob) != "hyperbolic":
            continue
        mat = mob.mat if mob.mat[0, 0] + mob.mat[1, 1] >= 0 else -mob.mat
        a, b, c, d = mat.ravel()
        lam = 0.5 * (a + d + math.sqrt((a + d) ** 2 - 4.0))
        v1, v2 = (b, lam - a), (lam - d, c)
        w = v1 if math.hypot(*v1) >= math.hypot(*v2) else v2
        out.append((BoundaryPoint(2.0 * math.atan2(w[1], w[0])), word))
    return out


def oracle_limit_sample(group, depth):
    """limit_sample_words from oracle_limit_candidates under the tie
    rule: in angle order, a run is a point and the points after it
    closer to it than LIMIT_DEDUP_TOL, the runs at both ends are one
    when their first points meet across 0, and a run keeps its first
    word in stream order."""
    rows = sorted(enumerate(oracle_limit_candidates(group, depth)),
                  key=lambda row: row[1][0].theta)
    runs = []
    for row in rows:
        if runs and row[1][0].theta - runs[-1][0][1][0].theta <= LIMIT_DEDUP_TOL:
            runs[-1].append(row)
        else:
            runs.append([row])
    if len(runs) >= 2 and angular_distance(
            runs[0][0][1][0].theta, runs[-1][0][1][0].theta) <= LIMIT_DEDUP_TOL:
        runs[0] += runs.pop()
    return sorted((min(run)[1] for run in runs), key=lambda pair: pair[0].theta)


def oracle_runs(theta):
    """The row loop _limit_runs replaced: in stable angle order, a run
    is anchored at its first angle and keeps its first row in stream
    order, and the runs at both ends are one when their first angles
    meet across 0."""
    theta = theta.tolist()
    runs = []  # [first angle, first row in stream order] in angle order
    for k in np.argsort(theta, kind="stable").tolist():
        if runs and theta[k] - runs[-1][0] <= LIMIT_DEDUP_TOL:
            runs[-1][1] = min(runs[-1][1], k)
        else:
            runs.append([theta[k], k])
    if len(runs) >= 2 and runs[0][0] + TWO_PI - runs[-1][0] <= LIMIT_DEDUP_TOL:
        del runs[-1 if runs[0][1] < runs[-1][1] else 0]
    return [k for _, k in runs]


def synthetic_angle_sets():
    """Angles that exercise each clause of the run rule, each set also
    shuffled in stream order."""
    tol = LIMIT_DEDUP_TOL
    rng = np.random.default_rng(17)
    # chains of gaps just under the tolerance, spanning several of it
    for base in (0.5, 2.0, 6.0):
        for gap in (0.999 * tol, (1.0 - 1e-6) * tol, 0.5 * tol):
            yield np.concatenate([base + gap * np.arange(12), [base + 1.0]])
    # angles exactly one tolerance above their run's first
    yield np.array([0.0, tol, 3.0])
    yield np.concatenate([0.5 * tol * np.arange(6), [1.0]])
    # gaps of one tolerance, which rounding puts on either side of it
    yield 1.0 + tol * np.arange(40)
    yield np.cumsum(np.full(40, tol)) + 3.0
    # equal angles, alone and inside chains
    yield np.repeat([0.25, 1.5, 1.5 + 0.6 * tol, 4.0], 3)
    # runs meeting across 0, with either end's first row earlier
    low, high = [0.0, 0.4 * tol, 2.0], [TWO_PI - 0.4 * tol, TWO_PI - 0.1 * tol, 4.0]
    yield np.array(low + high)
    yield np.array(high + low)
    yield np.array([0.3 * tol, TWO_PI - 0.8 * tol, TWO_PI - 0.1 * tol, 3.0])
    yield np.array([TWO_PI - 0.8 * tol, 0.3 * tol, 3.0, 1.0])
    # a run whose first row in stream order sorts last
    yield np.array([2.0 + 0.9 * tol, 2.0 + 0.6 * tol, 2.0 + 0.3 * tol, 2.0, 5.0])
    # random clusters at the scale of the tolerance
    for _ in range(20):
        centres = rng.uniform(0.0, TWO_PI, 8)
        yield np.mod(np.repeat(centres, 6) + rng.uniform(-2.0, 2.0, 48) * tol, TWO_PI)
    yield np.empty(0)
    yield np.array([1.0])


@pytest.mark.parametrize("theta", list(synthetic_angle_sets()))
def test_run_split_matches_the_row_loop(theta):
    for angles in (theta, np.random.default_rng(len(theta)).permutation(theta)):
        assert _limit_runs(angles).tolist() == oracle_runs(angles)


class TestLimitSample:
    def test_schottky_depth1_four_points(self):
        pts = [p for p, _ in limit_sample_words(standard_schottky(4.0), 1)]
        assert len(pts) == 4
        want = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]
        got = sorted(p.theta for p in pts)
        for g_val, w_val in zip(got, want):
            assert angular_distance(g_val, w_val) <= 1e-9

    def test_points_sorted_and_distinct(self):
        pts = [p for p, _ in limit_sample_words(standard_schottky(4.0), 3)]
        thetas = [p.theta for p in pts]
        assert thetas == sorted(thetas)
        assert all(b - a > 1e-12 for a, b in zip(thetas, thetas[1:]))

    def test_points_fixed_by_defining_words(self):
        g = standard_schottky(4.0)
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
            pts = [p for p, _ in limit_sample_words(modular_group(), depth)]
            thetas = sorted(p.theta for p in pts)
            gaps = [b - a for a, b in zip(thetas, thetas[1:])]
            gaps.append(2.0 * math.pi - thetas[-1] + thetas[0])
            return max(gaps)

        g4, g6, g8 = max_gap(4), max_gap(6), max_gap(8)
        assert g4 >= g6 >= g8
        assert g8 < g4

    @pytest.mark.parametrize("build", [modular_group, lambda: standard_schottky(4.0)],
                             ids=["modular", "schottky"])
    def test_kernel_formula_matches_the_per_point_route(self, build):
        # the level arrays and hypdisc._eigenframes against the route
        # they replaced: a Mobius value, classify and the attracting
        # point formula hypdisc kept for itself before, word by word
        group = build()
        got = limit_sample_words(group, 9)
        want = oracle_limit_sample(group, 9)
        assert [w for _, w in got] == [w for _, w in want]
        assert max(angular_distance(p.theta, q.theta)
                   for (p, _), (q, _) in zip(got, want)) <= 1e-15

    def test_ties_keep_the_first_word_in_stream_order(self):
        # TTTS and TTStSTTS share their attracting point: the shorter
        # word stays, whichever of the two angles rounds lower
        group = modular_group()
        points = {str(w): p.theta for p, w in oracle_limit_candidates(group, 9)}
        assert abs(points["TTTS"] - points["TTStSTTS"]) <= LIMIT_DEDUP_TOL
        kept = {str(w) for _, w in limit_sample_words(group, 9)}
        assert "TTTS" in kept and "TTStSTTS" not in kept

    def test_single_generator_elementary(self):
        g = free_schottky([boost(3.0)])
        with pytest.raises(NonElementary):
            limit_sample_words(g, 4)


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

    def test_custom_file_keeps_its_tolerance(self, tmp_path):
        path = tmp_path / "group.txt"
        path.write_text("kind=custom\ndedup_tol=1e-6\n"
                        "generator=2.0 0.0 0.0 0.5\n", encoding="utf-8")
        g = load_group_file(str(path))
        assert (g.kind, g.dedup_tol) == ("custom", 1e-6)
        assert len(g.alphabet) == 2

    def test_bad_file(self, tmp_path):
        path = tmp_path / "group.txt"
        path.write_text("kind=heisenberg\n", encoding="utf-8")
        with pytest.raises(InvalidInput):
            load_group_file(str(path))


class TestDisplacementFunction:
    def test_matches_point_distance_when_small(self):
        m = boost(1.0)
        assert displacement(m) == pytest.approx(1.0, abs=1e-12)
        m = Mobius(np.array([[1.3, 0.4], [-0.2, 0.9]]))
        want = dist_h(ORIGIN, apply_isometry(m, ORIGIN))
        assert displacement(m) == pytest.approx(want, abs=1e-10)

    def test_large_translations_finite(self):
        m = boost(200.0)
        assert displacement(m) == pytest.approx(200.0, rel=1e-12)

    def test_identity_is_zero(self):
        assert displacement(Mobius(np.eye(2))) == 0.0
