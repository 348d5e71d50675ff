"""Shared data types: coefficient multisets, sign distributions, exact laws.

Exact laws are integer counts on an integer lattice over one common
denominator; `fractions.Fraction` appears only where values leave the exact
layers.  Floating point only enters in explicitly numeric operations
(quadrature, scans, Monte Carlo summaries).
"""
from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

Pair = tuple[Fraction, Fraction]
Value = Union[Fraction, Pair]
INT64_MAX = 2**63 - 1


class ValidationError(ValueError):
    """Bad inputs or violated preconditions (CLI exit code 2)."""


class BudgetError(RuntimeError):
    """An enumeration/atom/scan budget was exceeded (CLI exit code 3)."""


class SoundnessError(RuntimeError):
    """A computed upper bound fell below the exact value it must dominate
    (CLI exit code 4)."""


def common_denominator(values: Iterable[Fraction]) -> int:
    """The least L with L * v an integer for every v."""
    return math.lcm(*(v.denominator for v in values))


def lattice_ints(values: Iterable[Fraction], L: int) -> list[int]:
    """[int(v * L) for v in values] without a Fraction product (L: a common denominator)."""
    return [v.numerator * (L // v.denominator) for v in values]


def _sorted_by(vals: list, keys: list) -> tuple:
    """`vals` in the order of their exact keys: no Fraction comparison."""
    return tuple(vals[i] for i in sorted(range(len(vals)), key=keys.__getitem__))


def check_bound(bound: float, exact: Fraction, name: str, on=None) -> None:
    """SoundnessError unless `bound` >= `exact` exactly (+inf holds, NaN not)."""
    if not (bound == math.inf or math.isfinite(bound) and Fraction(bound) >= exact):
        raise SoundnessError(f"{name} bound {bound} < exact {float(exact)}"
                             + ("" if on is None else f" on {on}"))


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or integer literals into an exact Fraction."""
    text = text.strip()
    if not text:
        raise ValidationError("empty rational literal")
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational literal {text!r}: {exc}") from exc


def checked_float(x, name: str) -> float:
    """float(x) for a rational x, refusing (ValidationError, naming `name`)
    one beyond the float range or a nonzero one that rounds to 0."""
    try:
        f = float(x)
    except OverflowError:
        f = 0.0
    if f == 0.0 and x != 0:
        raise ValidationError(f"{name} lies outside the float range")
    return f


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, float):
        if not x.is_integer():
            raise ValidationError(
                f"refusing to coerce non-integral float {x!r}; pass a Fraction or 'p/q'")
        return Fraction(int(x))
    raise ValidationError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class SignDistribution:
    """Finite-support law of the random sign/weight variable.

    support is sorted by value; probabilities are positive and sum to 1.
    """

    support: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if not self.support:
            raise ValidationError("sign distribution needs nonempty support")
        vals = [v for v, _ in self.support]
        if vals != sorted(vals) or len(set(vals)) != len(vals):
            raise ValidationError("support must be sorted with distinct values")
        total = Fraction(0)
        for _, p in self.support:
            if p <= 0:
                raise ValidationError("probabilities must be positive")
            total += p
        if total != 1:
            raise ValidationError(f"probabilities sum to {total}, not 1")

    @staticmethod
    @cache
    def bernoulli_pm1() -> "SignDistribution":
        h = Fraction(1, 2)
        return SignDistribution(((Fraction(-1), h), (Fraction(1), h)))

    @staticmethod
    @cache
    def boolean_01() -> "SignDistribution":
        h = Fraction(1, 2)
        return SignDistribution(((Fraction(0), h), (Fraction(1), h)))

    @staticmethod
    def lazy(mu) -> "SignDistribution":
        mu = _as_fraction(mu)
        if not 0 < mu <= 1:
            raise ValidationError("lazy parameter mu must be in (0, 1]")
        half = mu / 2
        support = [(Fraction(-1), half), (Fraction(1), half)]
        if mu < 1:
            support.insert(1, (Fraction(0), 1 - mu))
        return SignDistribution(tuple(support))

    @staticmethod
    def general(pairs: Iterable[tuple]) -> "SignDistribution":
        merged: dict[Fraction, Fraction] = {}
        for v, p in pairs:
            v, p = _as_fraction(v), _as_fraction(p)
            merged[v] = merged.get(v, Fraction(0)) + p
        return SignDistribution(tuple(sorted(merged.items())))

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(v for v, _ in self.support)

    def spread_bound(self) -> Fraction:
        """1 - b where b is extracted from open unit-length windows:
        sup over a of P(xi in (a-1, a+1))."""
        vals = self.values
        best = Fraction(0)
        n = len(vals)
        i = 0
        for j in range(n):
            while vals[j] - vals[i] >= 2:  # open window: strict span < 2
                i += 1
            mass = sum(p for _, p in self.support[i:j + 1])
            best = max(best, mass)
        return best

    def b_value(self) -> Fraction:
        return 1 - self.spread_bound()


@dataclass(frozen=True)
class CoefficientMultiset:
    """Sorted multiset of exact rational coefficients in dimension 1 or 2."""

    entries: tuple[Value, ...]
    d: int = 1

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValidationError("dimension must be 1 or 2")
        if not self.entries:
            raise ValidationError("coefficient multiset must be nonempty")

    @staticmethod
    def of(values: Sequence) -> "CoefficientMultiset":
        vals = [_as_fraction(v) for v in values]
        return CoefficientMultiset(_sorted_by(vals, lattice_ints(vals, common_denominator(vals))))

    @staticmethod
    def of_pairs(pairs: Sequence[Sequence]) -> "CoefficientMultiset":
        vals = [(_as_fraction(a), _as_fraction(b)) for a, b in pairs]
        L = common_denominator(c for v in vals for c in v)
        return CoefficientMultiset(_sorted_by(vals, [lattice_ints(v, L) for v in vals]), 2)

    @staticmethod
    def from_text(text: str, d: int = 1) -> "CoefficientMultiset":
        """Parse whitespace/comma separated rational literals; for d=2 the
        entries alternate x,y coordinates."""
        toks = [t for t in text.replace(",", " ").split() if t]
        if not toks:
            raise ValidationError("no coefficients given")
        vals = [parse_rational(t) for t in toks]
        if d == 1:
            return CoefficientMultiset.of(vals)
        if len(vals) % 2:
            raise ValidationError("d=2 input needs an even number of scalars")
        return CoefficientMultiset.of_pairs(list(zip(vals[0::2], vals[1::2])))

    @property
    def n(self) -> int:
        return len(self.entries)

    def int_entries(self) -> list[int]:
        """The entries as ints; ValidationError unless d=1 and all are integers."""
        if self.d != 1 or any(e.denominator != 1 for e in self.entries):
            raise ValidationError("integer coefficient multiset required")
        return [int(e) for e in self.entries]


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without building the Fraction."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class SortedCounts(Mapping):
    """A law's counts as the kernel's int64 arrays, keys ascending.  The
    values and items, as Python ints, come from the arrays; a dict is built
    only at the first lookup by key."""

    def __init__(self, keys, counts):
        self.arrays = keys, counts

    def __len__(self):
        return len(self.arrays[0])

    def __iter__(self):
        return iter(self.arrays[0].tolist())

    def values(self):
        return self.arrays[1].tolist()

    def items(self):
        return list(zip(*(a.tolist() for a in self.arrays)))

    @cached_property
    def _dict(self) -> dict[int, int]:
        return dict(self.items())

    def __getitem__(self, key):
        return self._dict[key]


@dataclass(frozen=True)
class ExactDistribution:
    """Exact law on a lattice: key k has probability counts[k] / total and
    stands for the value k / scale (d=1) or, when pack > 0, for the pair
    (x / scale, y / scale) with k = y + pack * x and 2|y| < pack (d=2), so
    that ascending keys are the values in order, pairs in (x, y) order."""

    counts: Mapping[int, int]
    scale: int
    total: int
    n_source: int
    pack: int = 0

    def __post_init__(self):
        # the kernel's int64 counts sum exactly: they are positive and their
        # total fits int64
        counts = self.counts
        if (counts.arrays[1].sum() if isinstance(counts, SortedCounts)
                else sum(counts.values())) != self.total:
            raise ValidationError(f"atom counts do not sum to {self.total}")

    def _coords(self, key: int) -> tuple[int, ...]:
        """The lattice point of a key: (k,) for d=1, (x, y) for d=2."""
        if not self.pack:
            return (key,)
        x = (key + self.pack // 2) // self.pack
        return x, key - self.pack * x

    def _value(self, key: int) -> Value:
        v = tuple(Fraction(c, self.scale) for c in self._coords(key))
        return v if self.pack else v[0]

    @cached_property
    def arrays(self):
        """(keys, counts) as arrays in value order: the kernel's int64 arrays,
        or a dict's, in int64 if its keys fit half of int64 and its total fits
        int64 (then no key difference or sum of counts wraps), else as object
        arrays of Python ints."""
        if isinstance(self.counts, SortedCounts):
            return self.counts.arrays
        keys = sorted(self.counts)
        fits = self.total <= INT64_MAX and max(map(abs, keys)) <= INT64_MAX // 2
        dtype = np.int64 if fits else object
        return np.array(keys, dtype), np.array([self.counts[k] for k in keys], dtype)

    @property
    def atoms(self) -> Mapping[Value, Fraction]:
        """value -> probability, in value order."""
        return self.__dict__.get("_atoms") or _Atoms(self)

    def max_atom(self) -> tuple[Fraction, Value]:
        """(probability, smallest value attaining it): the first maximum."""
        keys, counts = self.arrays
        i = int(np.argmax(counts))
        return Fraction(int(counts[i]), self.total), self._value(int(keys[i]))

    def _rows(self):
        """(value text, numerator, denominator) per atom, in value order."""
        for k, c in zip(*(a.tolist() for a in self.arrays)):
            text = [_ratio_text(x, self.scale) for x in self._coords(k)]
            g = math.gcd(c, self.total)
            yield (text if self.pack else text[0]), c // g, self.total // g

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["value", "numerator", "denominator"])
        for v, num, den in self._rows():
            w.writerow([f"({v[0]},{v[1]})" if self.pack else v, num, den])
        return buf.getvalue()

    def to_json_dict(self):
        return {"n_source": self.n_source,
                "atoms": [{"value": v, "prob": f"{num}/{den}"} for v, num, den in self._rows()]}


class _Atoms(Mapping):
    """The atoms of a law not yet read: its length is the support size; the
    first read builds the Fraction dict in value order, which the law then
    returns itself (so the law never refers back to this view)."""

    def __init__(self, law: ExactDistribution):
        self._law = law

    def _map(self) -> dict:
        law = self._law
        if "_atoms" not in law.__dict__:
            law.__dict__["_atoms"] = {law._value(k): Fraction(c, law.total)
                                      for k, c in zip(*(a.tolist() for a in law.arrays))}
        return law.__dict__["_atoms"]

    def __len__(self):
        return len(self._law.counts)

    def __getitem__(self, value):
        return self._map()[value]

    def __iter__(self):
        return iter(self._map())


def hypot2(p: Pair, q: Pair) -> Fraction:
    dx, dy = p[0] - q[0], p[1] - q[1]
    return dx * dx + dy * dy


def quad_le(a: Fraction, b: Fraction, q: Fraction, c: Fraction) -> bool:
    """Exact test of a + b*sqrt(q) <= c for rationals with q >= 0."""
    if q < 0:
        raise ValidationError("q must be >= 0")
    d = c - a
    if b == 0:
        return d >= 0
    if b > 0:
        return d >= 0 and b * b * q <= d * d
    # b < 0: a - |b| sqrt(q) <= c
    return d >= 0 or d * d <= b * b * q


def isqrt_fraction_exact(q: Fraction) -> Fraction | None:
    """sqrt(q) as a Fraction when q is a perfect rational square, else None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None
