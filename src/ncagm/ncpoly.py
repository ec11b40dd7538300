"""Arithmetic in the free algebra R<X1,...,Xn>.

Words are tuples of letters in 1..n; the empty tuple is the unit monomial.
Polynomials are finite coefficient maps over words.  Coefficients may be
exact (int / Fraction) for certificate work or binary64 floats for
solver-facing assembly; the arithmetic is agnostic, but every operation
canonicalizes its result (zero coefficients are never stored).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations as _permutations, product


def word_key(word):
    """Graded-lexicographic sort key: degree first, then lexicographic."""
    return (len(word), word)


def words_up_to(n, d):
    """All words of degree <= d over 1..n in graded-lex order (unit first).
    A word's index in the list is the number whose bijective base-n digits
    (1..n, first most significant) are its letters."""
    out = []
    for k in range(d + 1):
        out.extend(product(range(1, n + 1), repeat=k))
    return out


def word_count(n, d):
    """len(words_up_to(n, d)), without building the words."""
    return sum(n**k for k in range(d + 1))


def word_at(n, index):
    """words_up_to(n, d)[index], for any d that includes it."""
    word = []
    while index:
        index, digit = divmod(index - 1, n)
        word.append(digit + 1)
    return tuple(reversed(word))


@dataclass(frozen=True)
class MonomialBasis:
    """The ordered tuple of all words of degree <= d over n letters."""

    n: int
    d: int
    words: tuple

    @cached_property
    def _index(self):
        return {w: k for k, w in enumerate(self.words)}

    @property
    def size(self):
        return len(self.words)

    def index(self, word):
        return self._index[tuple(word)]


def monomial_basis(n, d):
    if n < 1:
        raise ValueError("alphabet size must be at least 1")
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    return MonomialBasis(n, d, tuple(words_up_to(n, d)))


def _check_word(word, n):
    for letter in word:
        if not 1 <= letter <= n:
            raise ValueError(f"letter {letter} outside alphabet 1..{n}")


class Permutation:
    """A bijection on {1, ..., n}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection on 1..{len(images)}: {images!r}")
        self.images = images

    @property
    def n(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i - 1]

    def compose(self, other):
        """Composition self o other, acting as i -> self(other(i))."""
        if self.n != other.n:
            raise ValueError("permutations act on different sets")
        return Permutation(self(other(i)) for i in range(1, self.n + 1))

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n, i, j):
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(images)

    @classmethod
    def cycle(cls, n):
        """The n-cycle 1 -> 2 -> ... -> n -> 1."""
        return cls(list(range(2, n + 1)) + [1])

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({self.images})"


class NCPolynomial:
    """A finite linear combination of words over the letters 1..n.

    Immutable by convention: no public method mutates `terms`, and all
    arithmetic returns fresh canonical instances.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=()):
        if n < 1:
            raise ValueError("alphabet size must be at least 1")
        items = terms.items() if isinstance(terms, dict) else terms
        clean = {}
        for word, coeff in items:
            word = tuple(word)
            _check_word(word, n)
            clean[word] = clean[word] + coeff if word in clean else coeff
        self.n = n
        self.terms = {w: c for w, c in clean.items() if c}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n, coeff=1):
        return cls(n, {(): coeff})

    @classmethod
    def letter(cls, n, i, coeff=1):
        return cls(n, {(i,): coeff})

    @classmethod
    def from_word(cls, n, word, coeff=1):
        return cls(n, {tuple(word): coeff})

    # -- ring operations -----------------------------------------------

    def _require_same_alphabet(self, other):
        if self.n != other.n:
            raise ValueError("polynomials over different alphabets")

    def __add__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        self._require_same_alphabet(other)
        acc = dict(self.terms)
        for w, c in other.terms.items():
            acc[w] = acc.get(w, 0) + c
        return NCPolynomial(self.n, acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NCPolynomial(self.n, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NCPolynomial):
            self._require_same_alphabet(other)
            acc = {}
            for wa, ca in self.terms.items():
                for wb, cb in other.terms.items():
                    w = wa + wb
                    acc[w] = acc.get(w, 0) + ca * cb
            return NCPolynomial(self.n, acc)
        return NCPolynomial(self.n, {w: c * other for w, c in self.terms.items()})

    def __rmul__(self, scalar):
        return NCPolynomial(self.n, {w: scalar * c for w, c in self.terms.items()})

    def transpose(self):
        """Reverse every word; coefficients unchanged.  An involution."""
        return NCPolynomial(self.n, {w[::-1]: c for w, c in self.terms.items()})

    def permute(self, sigma: Permutation):
        """Relabel every letter i -> sigma(i).  A ring homomorphism."""
        if sigma.n != self.n:
            raise ValueError("permutation acts on a different alphabet")
        return NCPolynomial(
            self.n, {tuple(sigma(l) for l in w): c for w, c in self.terms.items()}
        )

    # -- queries -------------------------------------------------------

    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

    def coefficient(self, word):
        return self.terms.get(tuple(word), 0)

    def is_symmetric(self):
        return self == self.transpose()

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: word_key(kv[0]))

    def evaluate(self, matrices):
        """Evaluate on a tuple of n square matrices (unit word -> identity)."""
        import numpy as np  # the one numeric method: the word algebra needs no numpy

        if len(matrices) != self.n:
            raise ValueError(f"need {self.n} matrices, got {len(matrices)}")
        mats = [np.asarray(a, dtype=float) for a in matrices]
        dim = mats[0].shape[0]
        for a in mats:
            if a.shape != (dim, dim):
                raise ValueError("matrices must be square and of equal dimension")
        out = np.zeros((dim, dim))
        for word, coeff in self.terms.items():
            prod = np.eye(dim)
            for letter in word:
                prod = prod @ mats[letter - 1]
            out += float(coeff) * prod
        return out

    # -- dunder plumbing -----------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, NCPolynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for word, coeff in self.sorted_terms():
            mono = "*".join(f"X{l}" for l in word)
            negative = coeff < 0
            mag = -coeff if negative else coeff
            if not mono:
                text = str(mag)
            elif mag == 1:
                text = mono
            else:
                text = f"{mag}*{mono}"
            if not parts:
                parts.append(f"-{text}" if negative else text)
            else:
                parts.append(f"- {text}" if negative else f"+ {text}")
        return " ".join(parts)

    def __repr__(self):
        return f"NCPolynomial(n={self.n}, {str(self)})"


def poly_mul(f, g):
    return f * g


def poly_transpose(f):
    return f.transpose()


def apply_permutation(f, sigma):
    return f.permute(sigma)


def distinct_product_sum(m, n):
    """Sum of X_{j1}...X_{jm} over all injective index tuples.

    Exactly n!/(n-m)! terms, each with coefficient 1; the result equals
    its own transpose.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return NCPolynomial(n, {p: 1 for p in _permutations(range(1, n + 1), m)})
