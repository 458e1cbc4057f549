"""Exception types shared by all chainlab modules, and the one check of a
grid {0..m-1}^n and of its points, which every module that checks input
can import from here."""

import itertools


class ChainlabError(Exception):
    """Base class for all chainlab errors."""


class DomainError(ChainlabError):
    """An argument is outside the mathematical domain of the operation.

    Examples: kappa <= 0 or kappa > n, a point with the wrong number of
    coordinates, a coarse resolution that does not divide the fine one.
    """


class ResourceLimitError(ChainlabError):
    """The requested computation exceeds a configured resource cap."""


def check_dimension(n: object) -> None:
    """Check that n is a dimension: an int (not a bool), n >= 1."""
    if type(n) is not int:
        raise DomainError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")


def check_grid(n: object, m: object, name: str = "m") -> None:
    """Check that {0..m-1}^n is a grid: n, m ints (not bools), n >= 1, m >= 2; m is `name`."""
    check_dimension(n)
    if type(m) is not int:
        raise DomainError(f"{name} must be an integer, got {m!r}")
    if m < 2:
        raise DomainError(f"{name} must be >= 2, got {m}")


def check_points(points: object, n: int, what: str) -> list[int]:
    """Check that each point has n int coordinates; return the coordinates, flat.

    The checks run on the whole set: an unhashable coordinate (a nested
    list), then dimension and type (bools are not coordinates).  Only on
    a failure is the first bad point, in input order, looked up to word
    the error, which calls it `what`.
    """
    rows = points
    if type(rows) is not list or set(map(type, rows)) - {list, tuple}:
        try:
            rows = list(map(tuple, rows))
        except TypeError as exc:
            raise DomainError(f"{what}s must be lists of integer coordinates: {exc}") from exc
    coords = list(itertools.chain.from_iterable(rows))
    types = set(map(type, coords))
    if any(t.__hash__ is None for t in types):
        bad = next(type(c) for c in coords if type(c).__hash__ is None)
        raise DomainError(
            f"{what}s must be lists of integer coordinates: unhashable type: {bad.__name__!r}"
        )
    if set(map(len, rows)) - {n}:
        p = next(p for p in rows if len(p) != n)
        raise DomainError(
            f"{what} {tuple(p)} has wrong dimension: {len(p)} coordinates, expected {n}"
        )
    if types - {int}:
        p = next(p for p in rows if set(map(type, p)) - {int})
        raise DomainError(f"{what} {tuple(p)} has a coordinate that is not an integer")
    return coords


def check_in_grid(coords: list[int], n: int, m: int, what: str) -> None:
    """Check that the flat coordinates of points of dimension n all lie in [0, m-1]."""
    if coords and not 0 <= min(coords) <= max(coords) < m:
        i = next(i for i, c in enumerate(coords) if not 0 <= c < m)
        start = i - i % n
        raise DomainError(
            f"{what} {tuple(coords[start:start + n])} outside the resolution-{m} grid: "
            f"coordinate {coords[i]} outside [0, {m - 1}]"
        )


def check_grid_points(points: object, n: int, m: int, what: str) -> list[int]:
    """`check_points`, then `check_in_grid`; return the coordinates, flat."""
    coords = check_points(points, n, what)
    check_in_grid(coords, n, m, what)
    return coords
