"""Polyline geometry: lengths, clipping, the coordinate-sum contraction."""

import math
import random
from fractions import Fraction

import pytest

from chainlab import (
    DomainError,
    MonotonePolyline,
    antichain_slab_membership,
    antidiagonal_decompose,
    coordinate_sum,
    extremal_chain,
    h1_length,
    polyline,
    segment_length,
    validate_monotone,
)
import polyline_oracle as oracle
from conftest import random_monotone_polyline

SLACK = Fraction(1, 2**30)


class TestValidateMonotone:
    def test_examples(self):
        assert validate_monotone([(0, 0), (1, 0), (1, 1)])
        assert not validate_monotone([(0, 1), (1, 0)])
        assert validate_monotone([])

    def test_outside_cube(self):
        assert not validate_monotone([(0, 0), (1, 2)])

    def test_mixed_dimensions(self):
        assert not validate_monotone([(0, 0), (1, 1, 1)])

    def test_constructor_rejects_invalid(self):
        with pytest.raises(DomainError):
            polyline([(0, 1), (1, 0)])
        with pytest.raises(DomainError, match="^denominator must be a positive integer, got 0$"):
            MonotonePolyline(2, [(0, 0)], 0)
        with pytest.raises(DomainError, match="^numerator '1' is not an integer$"):
            MonotonePolyline(2, [("1", 0)], 2)


class TestH1Length:
    def test_diagonal(self):
        for n in (1, 2, 3, 5):
            diag = polyline([tuple([0] * n), tuple([1] * n)])
            length = h1_length(diag)
            if n == 1:
                assert length == 1
            else:
                assert isinstance(length, float)
                assert abs(length - math.sqrt(n)) < 1e-12

    def test_high_dimension(self):
        # Many axes, two vertices: h1_length neither loops nor nests maps per axis.
        n = 3 * 10**5
        diag = MonotonePolyline(n, numerators=[[0] * n, [1] * n], denominator=1)
        assert h1_length(diag) == math.sqrt(n)

    def test_extremal_staircase_is_exactly_n(self):
        for n in (1, 2, 3, 6):
            assert h1_length(extremal_chain(n)) == n

    def test_single_point(self):
        assert h1_length(polyline([(Fraction(1, 3), Fraction(1, 2))])) == 0

    def test_staircase_stays_exact(self):
        p = polyline([(0, 0), (Fraction(1, 3), 0), (Fraction(1, 3), Fraction(3, 4))])
        length = h1_length(p)
        assert isinstance(length, Fraction)
        assert length == Fraction(1, 3) + Fraction(3, 4)

    def test_segment_sandwich(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(1, 5)
            a = tuple(Fraction(rng.randint(0, 8), 8) for _ in range(n))
            b = tuple(c + Fraction(rng.randint(0, int(8 - c * 8)), 8) for c in a)
            length = segment_length(a, b)
            l1 = sum(y - x for x, y in zip(a, b))
            l2 = math.sqrt(float(sum((y - x) ** 2 for x, y in zip(a, b))))
            assert l2 - 1e-12 <= float(length) <= float(l1) + 1e-12
            if isinstance(length, Fraction):
                assert length <= l1

    def test_segment_goes_up_inside_the_cube(self):
        # A segment is a one-segment polyline: from a up to b in [0,1]^n.
        assert segment_length((0, 0), (0, Fraction(1, 2))) == Fraction(1, 2)
        for a, b in (((1, 0), (0, 1)), ((Fraction(1, 2),), (0,)), ((0,), (2,))):
            with pytest.raises(DomainError):
                segment_length(a, b)

    def test_polyline_l1_bound(self):
        rng = random.Random(29)
        for _ in range(100):
            p = random_monotone_polyline(rng, rng.choice([2, 3]), max_vertices=20)
            l1 = sum(y - x for x, y in zip(p.vertices[0], p.vertices[-1]))
            assert float(h1_length(p)) <= float(l1) + 1e-9


class TestExtremalChain:
    def test_vertices_fill_left_to_right(self):
        chain = extremal_chain(2)
        assert chain.vertices == ((0, 0), (1, 0), (1, 1))
        chain = extremal_chain(3)
        assert chain.vertices == ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))

    def test_dimension_one(self):
        assert extremal_chain(1).vertices == ((0,), (1,))


class TestCoordinateSum:
    def test_examples(self):
        assert coordinate_sum([1] * 4) == 4
        assert coordinate_sum([0, 0]) == 0

    def test_contraction_for_comparable_points(self):
        a, b = (0, 0), (1, 1)
        dist = math.sqrt(2)
        assert dist <= coordinate_sum(b) - coordinate_sum(a)

    def test_contraction_randomised(self):
        rng = random.Random(37)
        for _ in range(500):
            n = rng.randint(1, 5)
            a = tuple(Fraction(rng.randint(0, 10), 10) for _ in range(n))
            b = tuple(c + Fraction(rng.randint(0, int(10 - c * 10)), 10) for c in a)
            dist = math.sqrt(float(sum((y - x) ** 2 for x, y in zip(a, b))))
            assert dist <= float(coordinate_sum(b) - coordinate_sum(a)) + 1e-12


class TestAntichainSlab:
    def test_examples(self):
        assert antichain_slab_membership((Fraction(1, 2), Fraction(1, 2)), 1)
        assert antichain_slab_membership((1, 0, 0), 1)
        assert not antichain_slab_membership((1, 1), 1)

    def test_level_domain(self):
        with pytest.raises(DomainError):
            antichain_slab_membership((0, 0), 3)

    def test_equal_level_points_incomparable(self):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(2, 5)
            t = Fraction(rng.randint(1, 4 * n - 1), 4)
            # sample two distinct points on the level set
            def sample():
                while True:
                    x = [Fraction(rng.randint(0, 4), 4) for _ in range(n - 1)]
                    last = t - sum(x)
                    if 0 <= last <= 1:
                        return tuple(x) + (last,)
            a, b = sample(), sample()
            if a == b:
                continue
            assert antichain_slab_membership(a, t) and antichain_slab_membership(b, t)
            assert not all(x <= y for x, y in zip(a, b))
            assert not all(x >= y for x, y in zip(a, b))


class TestAntidiagonalDecompose:
    def test_diagonal_of_square(self):
        diag = polyline([(0, 0), (1, 1)])
        pieces = antidiagonal_decompose(diag)
        assert len(pieces) == 2
        for piece in pieces:
            assert piece.s_interval == (0, 1)
            assert abs(h1_length(piece.piece) - math.sqrt(2) / 2) < 1e-12
        assert pieces[0].piece.vertices[-1] == (Fraction(1, 2), Fraction(1, 2))

    def test_staircase(self):
        stair = polyline([(0, 0), (1, 0), (1, 1)])
        pieces = antidiagonal_decompose(stair)
        assert pieces[0].s_interval == (0, 1)
        assert pieces[1].s_interval == (0, 1)
        assert h1_length(pieces[0].piece) == 1
        assert h1_length(pieces[1].piece) == 1

    def test_low_sum_polyline_leaves_upper_pieces_empty(self):
        p = polyline([(0, 0), (Fraction(1, 4), 0), (Fraction(1, 4), Fraction(1, 4))])
        pieces = antidiagonal_decompose(p)
        assert pieces[0].piece is not None
        assert pieces[1].piece is None
        assert pieces[1].s_interval is None

    def test_empty_polyline(self):
        p = MonotonePolyline(3, ())
        assert all(piece.piece is None for piece in antidiagonal_decompose(p))

    def test_piece_invariants_randomised(self):
        rng = random.Random(59)
        for _ in range(200):
            n = rng.choice([2, 3])
            p = random_monotone_polyline(rng, n, max_vertices=12)
            total = float(h1_length(p))
            piece_sum = 0.0
            for piece in antidiagonal_decompose(p):
                if piece.piece is None:
                    continue
                length = float(h1_length(piece.piece))
                piece_sum += length
                assert piece.s_interval_length <= 1
                assert length <= float(piece.s_interval_length) + float(SLACK)
            assert abs(piece_sum - total) < 1e-9

    def test_pieces_cover_polyline_exactly_for_staircases(self):
        stair = extremal_chain(3)
        lengths = [
            h1_length(piece.piece)
            for piece in antidiagonal_decompose(stair)
            if piece.piece is not None
        ]
        assert sum(lengths) == h1_length(stair) == 3

    def test_pieces_contain_every_vertex_in_sum_range(self):
        rng = random.Random(71)
        for _ in range(100):
            n = rng.choice([2, 3])
            p = random_monotone_polyline(rng, n, max_vertices=15)
            piece_vertices = set()
            for piece in antidiagonal_decompose(p):
                if piece.piece is None:
                    continue
                lo, hi = Fraction(piece.index - 1), Fraction(piece.index)
                for v in piece.piece.vertices:
                    assert lo <= coordinate_sum(v) <= hi
                    piece_vertices.add(v)
            for v in p.vertices:
                assert v in piece_vertices


def _same(got, want) -> bool:
    # Equal Fractions, or floats equal bit for bit.
    if isinstance(want, float):
        return type(got) is float and got.hex() == want.hex()
    return type(got) is Fraction and got == want


class TestAgainstFractionOracle:
    """The integer kernels against the Fraction code they replaced."""

    def check(self, n, vertices):
        p = polyline(vertices, n)
        assert p.vertices == vertices
        for a, b in zip(vertices, vertices[1:]):
            assert _same(segment_length(a, b), oracle.segment_length(a, b))
        assert _same(h1_length(p), oracle.h1_length(vertices))
        got = antidiagonal_decompose(p)
        want = oracle.antidiagonal_decompose(n, vertices)
        assert len(got) == len(want) == n
        for piece, (index, piece_vertices, s_interval) in zip(got, want):
            assert piece.index == index
            assert piece.s_interval == s_interval
            if piece_vertices is None:
                assert piece.piece is None
                continue
            assert piece.piece.vertices == piece_vertices
            assert _same(h1_length(piece.piece), oracle.h1_length(piece_vertices))

    def test_random_polylines(self):
        rng = random.Random(83)
        on_hyperplane = repeated = 0
        for kind in ("staircase", "skew"):
            for _ in range(400):
                n = rng.randint(1, 5)
                vertices = oracle.random_vertices(rng, n, kind)
                on_hyperplane += any(sum(v) == int(sum(v)) for v in vertices[1:-1])
                repeated += any(a == b for a, b in zip(vertices, vertices[1:]))
                self.check(n, vertices)
        assert on_hyperplane > 100 and repeated > 100

    def test_edge_cases(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        self.check(3, ())
        self.check(2, ((half, third),))
        self.check(2, ((Fraction(0), Fraction(0)),))
        self.check(3, ((Fraction(1), Fraction(1), Fraction(1)),))
        # every vertex on an integer-sum hyperplane, and repeated
        ones = (Fraction(0), Fraction(0)), (half, half), (half, half), (Fraction(1), Fraction(1))
        self.check(2, ones)
        self.check(3, extremal_chain(3).vertices)
        # one skew segment crossing two hyperplanes
        self.check(3, ((Fraction(0),) * 3, (Fraction(1), Fraction(9, 10), Fraction(7, 10))))

    def test_length_kernel_branches(self):
        # The cases h1_length's kernel branches on.
        zero, half, third, one = Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1)
        self.check(1, ())
        self.check(1, ((third,),))
        self.check(1, ((zero,), (third,), (third,), (one,)))
        # all axis-parallel, with repeated vertices
        self.check(2, ((zero, zero), (third, zero), (third, zero), (third, half), (one, half)))
        # one skew segment among staircase steps, and alone
        steps = (zero, zero, zero), (half, zero, zero), (half, third, zero), (Fraction(3, 4), half, zero)
        self.check(3, steps + ((Fraction(3, 4), half, Fraction(1, 4)), (one, half, Fraction(1, 4))))
        self.check(3, steps[2:])
        # skew segments only, one repeated; then a skew segment lost to cancellation
        self.check(2, ((zero, zero), (third, half), (third, half), (one, one)))
        d = 3**40
        self.check(2, ((Fraction(d - 2, d),) * 2, (Fraction(d - 1, d),) * 2, (one, one)))

    def test_many_large_denominators(self):
        # 300 distinct denominators of 65 bits: the diagonal (skew) and a
        # staircase through the same coordinates.
        count = 300
        coords = [Fraction(0)]
        for i in range(1, count):
            d = 2**64 + 2 * i + 1
            coords.append(Fraction(i * d // count, d))
        assert len({c.denominator for c in coords}) > 250
        self.check(2, tuple((c, c) for c in coords))
        steps = [(coords[0], coords[0])]
        for c in coords[1:]:
            steps += [(c, steps[-1][1]), (c, c)]
        self.check(2, tuple(steps))
        assert type(h1_length(polyline(steps))) is Fraction

    def test_reduction_by_the_gcd_of_every_numerator(self):
        # den and the numerators' sum share 6, the numerators 1 or 2.
        assert MonotonePolyline(1, [(1,), (5,)], 6).denominator == 6
        p = MonotonePolyline(1, [(2,), (4,)], 6)
        assert (p.numerators, p.denominator) == (((1,), (2,)), 3)

    def test_numerator_constructor_matches_fractions(self):
        rng = random.Random(89)
        for _ in range(200):
            n = rng.randint(1, 4)
            vertices = oracle.random_vertices(rng, n, rng.choice(("staircase", "skew")))
            p = polyline(vertices, n)
            scale = rng.randint(1, 5)
            q = MonotonePolyline(
                n,
                numerators=[[x * scale for x in v] for v in p.numerators],
                denominator=p.denominator * scale,
            )
            assert q == p and q.denominator == p.denominator
            assert math.gcd(p.denominator, *(x for v in p.numerators for x in v)) == 1
