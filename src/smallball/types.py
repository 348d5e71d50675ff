"""Shared data types: coefficient multisets, sign distributions, exact laws.

All probability arithmetic in the exact layers uses `fractions.Fraction`;
floating point only enters in explicitly numeric operations (quadrature,
scans, Monte Carlo summaries).
"""
from __future__ import annotations

import csv
import io
import json
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
    kind: str = "general"

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
        return SignDistribution(((Fraction(-1), h), (Fraction(1), h)), "bernoulli_pm1")

    @staticmethod
    def boolean_01() -> "SignDistribution":
        h = Fraction(1, 2)
        return SignDistribution(((Fraction(0), h), (Fraction(1), h)), "boolean_01")

    @staticmethod
    def lazy(mu) -> "SignDistribution":
        mu = _as_fraction(mu)
        if not 0 < mu <= 1:
            raise ValidationError("lazy parameter mu must be in (0, 1]")
        half = mu / 2
        support = [(Fraction(-1), half), (Fraction(1), half)]
        if mu < 1:
            support.insert(1, (Fraction(0), 1 - mu))
        return SignDistribution(tuple(support), f"lazy_mu({mu})")

    @staticmethod
    def general(pairs: Iterable[tuple]) -> "SignDistribution":
        merged: dict[Fraction, Fraction] = {}
        for v, p in pairs:
            v, p = _as_fraction(v), _as_fraction(p)
            merged[v] = merged.get(v, Fraction(0)) + p
        return SignDistribution(tuple(sorted(merged.items())), "general")

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


def _norm2(entry: Value) -> Fraction:
    if isinstance(entry, tuple):
        return entry[0] * entry[0] + entry[1] * entry[1]
    return entry * entry


@dataclass(frozen=True)
class CoefficientMultiset:
    """Sorted multiset of exact rational coefficients in dimension 1 or 2."""

    entries: tuple[Value, ...]
    d: int = 1
    unit_norm_floor: bool = False

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValidationError("dimension must be 1 or 2")
        if not self.entries:
            raise ValidationError("coefficient multiset must be nonempty")
        if self.unit_norm_floor:
            for e in self.entries:
                if _norm2(e) < 1:
                    raise ValidationError(
                        f"unit_norm_floor set but entry {e} has norm < 1")

    @staticmethod
    def of(values: Sequence, unit_norm_floor: bool = False) -> "CoefficientMultiset":
        entries = tuple(sorted(_as_fraction(v) for v in values))
        return CoefficientMultiset(entries, 1, unit_norm_floor)

    @staticmethod
    def of_pairs(pairs: Sequence[Sequence], unit_norm_floor: bool = False) -> "CoefficientMultiset":
        entries = tuple(sorted((_as_fraction(a), _as_fraction(b)) for a, b in pairs))
        return CoefficientMultiset(entries, 2, unit_norm_floor)

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


@dataclass(frozen=True)
class ExactDistribution:
    """Exact law: map value -> probability with rational atoms summing to 1."""

    atoms: Mapping[Value, Fraction]
    n_source: int

    def __post_init__(self):
        total = sum(self.atoms.values(), Fraction(0))
        if total != 1:
            raise ValidationError(f"atom probabilities sum to {total}, not 1")

    def max_atom(self) -> tuple[Fraction, Value]:
        """(probability, smallest value attaining it)."""
        best_p = max(self.atoms.values())
        best_v = min(v for v, p in self.atoms.items() if p == best_p)
        return best_p, best_v

    def sorted_items(self):
        return sorted(self.atoms.items())

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["value", "numerator", "denominator"])
        for v, p in self.sorted_items():
            key = f"({v[0]},{v[1]})" if isinstance(v, tuple) else str(v)
            w.writerow([key, p.numerator, p.denominator])
        return buf.getvalue()

    def to_json(self) -> str:
        items = []
        for v, p in self.sorted_items():
            key = [str(v[0]), str(v[1])] if isinstance(v, tuple) else str(v)
            items.append({"value": key, "prob": f"{p.numerator}/{p.denominator}"})
        return json.dumps({"n_source": self.n_source, "atoms": items})


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
