"""Shared generators for randomized property tests.

Everything is seeded; no test depends on an unseeded RNG.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from chainlab import CellSet, ChainOfPoints, MonotonePolyline


def random_monotone_polyline(
    rng: random.Random,
    n: int,
    max_vertices: int = 50,
    denominator: int = 16,
) -> MonotonePolyline:
    """Random chain polyline: each coordinate is an independent sorted sample.

    The vertices are integer numerators over `denominator`, handed to the
    validating constructor.
    """
    count = rng.randint(1, max_vertices)
    columns = [
        sorted(rng.randint(0, denominator) for _ in range(count)) for _ in range(n)
    ]
    return MonotonePolyline(n, numerators=list(zip(*columns)), denominator=denominator)


def random_cellset(
    rng: random.Random, n: int, M: int, density: float
) -> CellSet:
    """Independent Bernoulli cells at the given density."""
    import itertools

    cells = []
    for cell in itertools.product(range(M), repeat=n):
        if rng.random() < density:
            cells.append(cell)
    return CellSet(n=n, M=M, cells=frozenset(cells))


def random_covered_cellset(
    rng: random.Random, n: int, M: int, m: int, removals: int
) -> CellSet:
    """A union of full coarse cubes with a few fine cells knocked out.

    Keeps the covering defect (cover measure minus set measure) at most
    removals / M**n, which the caller sizes below epsilon**(2n+1).
    """
    import itertools

    w = M // m
    coarse = [d for d in itertools.product(range(m), repeat=n) if rng.random() < 0.5]
    cells = set()
    for d in coarse:
        ranges = [range(c * w, (c + 1) * w) for c in d]
        cells.update(itertools.product(*ranges))
    removed = 0
    cell_list = sorted(cells)
    rng.shuffle(cell_list)
    for cell in cell_list[:removals]:
        cells.discard(cell)
        removed += 1
    return CellSet(n=n, M=M, cells=frozenset(cells))


def random_dense_cube_chain(
    rng: random.Random, n: int, m: int, w: int, missing_per_cube: int
) -> tuple[CellSet, ChainOfPoints, Fraction]:
    """A random cube chain, fine cells filling its cubes minus a few removals.

    Returns (cell set, cube chain, epsilon) with every cube's density
    strictly above the well-covered threshold for that epsilon.
    """
    import itertools

    # random monotone walk through the coarse grid, diagonal jumps allowed
    cube = tuple(0 for _ in range(n))
    cubes = [cube]
    while any(c < m - 1 for c in cube) and rng.random() < 0.85:
        axes = [j for j in range(n) if cube[j] < m - 1]
        chosen = rng.sample(axes, rng.randint(1, len(axes)))
        cube = tuple(
            c + (rng.randint(1, m - 1 - c) if j in chosen else 0)
            for j, c in enumerate(cube)
        )
        cubes.append(cube)
    M = m * w
    cells = set()
    for d in cubes:
        ranges = [range(c * w, (c + 1) * w) for c in d]
        block = list(itertools.product(*ranges))
        for cell in rng.sample(block, rng.randint(0, missing_per_cube)):
            block.remove(cell)
        cells.update(block)
    # a little clutter outside the chain, harmless for the certificate
    for _ in range(rng.randint(0, 3)):
        cells.add(tuple(rng.randrange(M) for _ in range(n)))
    if n == 1:
        epsilon = Fraction(1, 5)
    else:
        epsilon = Fraction(1, 7)
    return CellSet(n=n, M=M, cells=frozenset(cells)), ChainOfPoints(tuple(cubes)), epsilon


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
