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
from typing import Iterable, Mapping, Sequence, Union

Pair = tuple[Fraction, Fraction]
Value = Union[Fraction, Pair]


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
    def bernoulli_pm1() -> "SignDistribution":
        h = Fraction(1, 2)
        return SignDistribution(((Fraction(-1), h), (Fraction(1), h)))

    @staticmethod
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

    def difference_law(self) -> "list[tuple[Fraction, Fraction]]":
        """Exact law of xi1 - xi2 for two independent copies."""
        out: dict[Fraction, Fraction] = {}
        for v1, p1 in self.support:
            for v2, p2 in self.support:
                d = v1 - v2
                out[d] = out.get(d, Fraction(0)) + p1 * p2
        return sorted(out.items())

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

    def satisfies_difference_condition(self, c1, c2, c3) -> bool:
        """Exact check of P(c1 <= |xi1 - xi2| <= c2) >= c3."""
        c1, c2, c3 = map(_as_fraction, (c1, c2, c3))
        mass = sum(p for d, p in self.difference_law() if c1 <= abs(d) <= c2)
        return mass >= c3


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
        entries = tuple(sorted(_as_fraction(v) for v in values))
        return CoefficientMultiset(entries, 1)

    @staticmethod
    def of_pairs(pairs: Sequence[Sequence]) -> "CoefficientMultiset":
        entries = tuple(sorted((_as_fraction(a), _as_fraction(b)) for a, b in pairs))
        return CoefficientMultiset(entries, 2)

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

    def scaled(self, c) -> "CoefficientMultiset":
        c = _as_fraction(c)
        if c == 0:
            raise ValidationError("scale factor must be nonzero")
        if self.d == 1:
            return CoefficientMultiset.of([c * e for e in self.entries])
        return CoefficientMultiset.of_pairs([(c * x, c * y) for x, y in self.entries])

    def rotated(self, cos_sin: tuple) -> "CoefficientMultiset":
        """Rotate all d=2 entries by an exact rational rotation pair
        (c, s) with c^2 + s^2 = 1 (e.g. (3/5, 4/5))."""
        if self.d != 2:
            raise ValidationError("rotation applies to d=2 multisets")
        c, s = map(_as_fraction, cos_sin)
        if c * c + s * s != 1:
            raise ValidationError("rotation pair must satisfy c^2 + s^2 = 1")
        return CoefficientMultiset.of_pairs(
            [(c * x - s * y, s * x + c * y) for x, y in self.entries])


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without building the Fraction."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


@dataclass(frozen=True)
class ExactDistribution:
    """Exact law on a lattice: key k has probability counts[k] / total and
    stands for the value k / scale (d=1) or, when pack > 0, for the pair
    (x / scale, y / scale) with k = x + pack * y and 2|x| < pack (d=2)."""

    counts: Mapping[int, int]
    scale: int
    total: int
    n_source: int
    pack: int = 0

    def __post_init__(self):
        if sum(self.counts.values()) != self.total:
            raise ValidationError(f"atom counts do not sum to {self.total}")

    def _coords(self, key: int) -> tuple[int, ...]:
        """The lattice point of a key: (k,) for d=1, (x, y) for d=2."""
        if not self.pack:
            return (key,)
        y = (key + self.pack // 2) // self.pack
        return key - self.pack * y, y

    def _value(self, key: int) -> Value:
        v = tuple(Fraction(c, self.scale) for c in self._coords(key))
        return v if self.pack else v[0]

    @property
    def _order(self):
        """Sort key under which keys sort as their values do."""
        return self._coords if self.pack else None

    def _sorted_keys(self) -> list[int]:
        return sorted(self.counts, key=self._order)

    @property
    def atoms(self) -> Mapping[Value, Fraction]:
        """value -> probability, in the key order of `counts`."""
        return self.__dict__.get("_atoms") or _Atoms(self)

    def max_atom(self) -> tuple[Fraction, Value]:
        """(probability, smallest value attaining it)."""
        best = max(self.counts.values())
        ties = (k for k, c in self.counts.items() if c == best)
        return Fraction(best, self.total), self._value(min(ties, key=self._order))

    def sorted_items(self) -> list[tuple[Value, Fraction]]:
        return [(self._value(k), Fraction(self.counts[k], self.total))
                for k in self._sorted_keys()]

    def _rows(self):
        """(value text, numerator, denominator) per atom, in value order."""
        for k in self._sorted_keys():
            text = [_ratio_text(c, self.scale) for c in self._coords(k)]
            g = math.gcd(self.counts[k], self.total)
            yield (text if self.pack else text[0]), self.counts[k] // g, self.total // g

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
    first read builds the Fraction dict, which the law then returns itself
    (so the law never refers back to this view)."""

    def __init__(self, law: ExactDistribution):
        self._law = law

    def _map(self) -> dict:
        law = self._law
        if "_atoms" not in law.__dict__:
            law.__dict__["_atoms"] = {
                law._value(k): Fraction(c, law.total) for k, c in law.counts.items()}
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
