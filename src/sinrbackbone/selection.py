"""Selection families built as Reed-Solomon codes, and an independent
certification oracle for them.

Two kinds of families drive every protocol here: (N,c) strongly selective
families (every member of any subset of size <= c gets a round where it is
the unique selected member) and (k,m,N)-selectors. Both are built by one
arithmetic construction (Kautz & Singleton, "Nonrandom binary superimposed
codes", IEEE T-IT 1964; Porat & Rothschild, ICALP 2008), so the selection
property holds by construction and the build path checks nothing:

- Label l maps to the polynomial p_l over GF(q) whose K coefficients are the
  base-q digits of l-1, lowest first (q a prime power, q^K >= N).
- Set x*q + y, for x < P and y < q, holds the labels with p_l(x) = y, where
  x runs over the first P field elements and P = (c-1)(K-1)+1 <= q. A label
  is in exactly P sets, one per point x.
- Two distinct polynomials of degree < K agree on at most K-1 points. So c-1
  other labels share at most (c-1)(K-1) = P-1 of label u's P sets, and some
  set isolates u.

GF(q) is built once per q from log/antilog tables of the smallest monic
primitive polynomial of degree r over GF(p), q = p^r (`_field`, O(q)
memory); addition is digit-wise over GF(p). For prime q the tables are
arithmetic mod q. (q, K) is fixed by `code_parameters` alone: the smallest
family over every K, with q from the orders the kind admits. Selectors
take any prime power. Ssfs, the families that carry the transmissions,
take primes only: over GF(8) the (64, 4) base ssf puts 8 labels in a set
instead of at most 6, and a token message is lost in demo mode
(tests/fixtures/acceptance_38.json). K=1 is N singleton sets (round
robin), the smallest family whenever c is large against N. A (k,k,N)-ssf
is a (k,m,N)-selector for every m <= k, so one construction serves every
family. The label space is known before a run, so a family's memberships
are too: each label's sets are one row of its codeword table, x*q + p_l(x)
for x < P, computed once per process per (q, K, P, N) and shared by every
family of that code (`_codewords`). A family of more than TABLE_ENTRIES
labels x points (the 2^20-label pair ssf of N = 1024, say) holds no table
and evaluates each label's polynomial by Horner when it is read.

`certify` checks a family's selection property without reading how it was
built, so the tests use it as the oracle for the construction. For label
spaces up to EXACT_LABEL_CUTOFF it first tries the codes' own counting
argument on the membership alone: with G = M M^T over the (labels x sets)
0/1 matrix M, diag(G) counts each label's sets and the off-diagonal its
shared sets with each other label, so min diag(G) > (c-1) max offdiag(G)
leaves every label a set that c-1 others cannot all reach. That certificate
is sound but not complete; when it declines, the subset space is enumerated
if it is small, and otherwise seeded random spot-checks run.

Enumeration and spot-checks share one batched kernel. The labels of a batch
of subsets are turned into label-major uint64 words (bit j of a label's word
w: the label is in set 64w + j), and a bit-sliced "covered once" count marks
the sets that hold exactly one member; a member is isolated iff it is in such
a set. Spot-check subsets are drawn by Floyd's algorithm from
`np.random.default_rng(seed)`, a chunk of rows per `integers` call
(`_floyd_rows`). The rows do not depend on the chunk size, so a verdict and
its first counterexample are reproducible from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b
from itertools import chain, combinations, islice
from typing import Optional

import numpy as np

ENUM_CUTOFF = 10**6  # exhaustive subset-enumeration budget
EXACT_LABEL_CUTOFF = 4096  # counting certificate tried up to this label space (64 MB Gram)
SAMPLES = 100_000  # spot-check subsets
CHUNK_WORDS = 1 << 18  # uint64 words per batched isolation check (2 MB)
TABLE_ENTRIES = 1 << 13  # labels x points of the largest codeword table (64 KB)


def derive_seed(base: int, *tags: object) -> int:
    """Stable 63-bit seed derived from a base seed and a tag tuple."""
    h = blake2b(repr((int(base),) + tags).encode("ascii"), digest_size=8)
    return int.from_bytes(h.digest(), "big") >> 1


# ---------------------------------------------------------------------------
# Construction: Reed-Solomon codes over GF(q).


def _root_ceil(n: int, k: int) -> int:
    """Smallest q >= 1 with q^k >= n."""
    q = max(1, round(n ** (1.0 / k)))
    while q**k < n:
        q += 1
    while q > 1 and (q - 1) ** k >= n:
        q -= 1
    return q


def _prime_power(n: int) -> Optional[tuple[int, int]]:
    """(p, r) with p prime and n = p^r, or None."""
    if n < 2:
        return None
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    r = 0
    while n % p == 0:
        n //= p
        r += 1
    return (p, r) if n == 1 else None


def _admissible(q: int, kind: str) -> bool:
    """Field orders a family of this kind is built over: prime powers for
    selectors, primes for ssfs (see the module docstring)."""
    power = _prime_power(q)
    return power is not None and (kind == "selector" or power[1] == 1)


@lru_cache(maxsize=1024)
def code_parameters(n_labels: int, c: int, kind: str) -> tuple[int, int, int]:
    """(q, K, P) of the (n_labels, c)-ssf: the smallest family P*q over K.

    K = 1 is q = N singleton sets (P = 1). For K >= 2, P = (c-1)(K-1)+1 and
    q is the smallest admissible field order for the kind (`_admissible`)
    with q >= P and q^K >= N, which minimizes P*q for that K. Ties go to the
    smaller K, which puts each label in fewer sets. No K past lg N can win:
    there q >= P, and P grows with K.
    """
    best = (n_labels, 1, n_labels, 1)  # (size, K, q, P)
    for k in range(2, max(2, (n_labels - 1).bit_length()) + 1):
        p = (c - 1) * (k - 1) + 1
        if p * p >= best[0]:
            break
        q = max(p, _root_ceil(n_labels, k))
        while not _admissible(q, kind):
            q += 1
        if p * q < best[0]:
            best = (p * q, k, q, p)
    _, k, q, p = best
    return q, k, p


@dataclass(frozen=True)
class _Field:
    """GF(q), q = p^r. An element is an integer below q whose base-p digits
    are its coefficients over GF(p), lowest first. Multiplication goes
    through log/antilog tables of the generator X of a fixed primitive
    polynomial; `log` maps 0 to 2(q-1), past every sum of two logs of
    non-zero elements, and `exp` is 0 from there on, so a product with a
    zero factor reads 0 with no branch. O(q) memory."""

    p: int
    r: int
    exp: np.ndarray  # exp[i] = X^(i mod (q-1)) for i < 2(q-1), then 0
    log: np.ndarray  # log[a] = i with X^i = a for a != 0; log[0] = 2(q-1)

    def mul(self, a, b) -> np.ndarray:
        return self.exp[self.log[a] + self.log[b]]

    def add(self, a, b) -> np.ndarray:
        """Digit-wise sum over GF(p): XOR for p = 2."""
        if self.p == 2:
            return np.bitwise_xor(a, b)
        p, out, unit = self.p, 0, 1
        for _ in range(self.r):
            out = out + (a // unit + b // unit) % p * unit
            unit *= p
        return out


def _powers_of_x(p: int, low: tuple[int, ...]) -> Optional[list[int]]:
    """X^0 .. X^(q-2) modulo the monic f = X^r + sum low[i] X^i over GF(p),
    q = p^r, as field elements, if X has order q-1 (f is primitive); None
    otherwise."""
    r = len(low)
    digits = [1] + [0] * (r - 1)
    powers = []
    for _ in range(p**r - 1):
        value = sum(d * p**i for i, d in enumerate(digits))
        if powers and value <= 1:
            return None  # X is zero or of order below q-1
        powers.append(value)
        top = digits[-1]  # multiply by X, then reduce X^r = -sum low[i] X^i
        digits = [(d - top * c) % p for d, c in zip([0] + digits[:-1], low)]
    return powers if digits == [1] + [0] * (r - 1) else None


@lru_cache(maxsize=256)
def _field(q: int) -> _Field:
    """GF(q) for a prime power q, from the smallest monic primitive
    polynomial of degree r over GF(p): the one whose lower coefficients,
    read as base-p digits lowest first, make the smallest number."""
    p, r = _prime_power(q)
    for code in range(q):
        powers = _powers_of_x(p, tuple(code // p**i % p for i in range(r)))
        if powers is not None:
            break
    zero_log = 2 * (q - 1)
    exp = np.zeros(2 * zero_log + 1, dtype=np.int64)
    exp[:zero_log] = powers + powers
    log = np.full(q, zero_log, dtype=np.int64)
    log[powers] = np.arange(q - 1)
    exp.flags.writeable = log.flags.writeable = False  # shared by every caller
    return _Field(p, r, exp, log)


@dataclass
class SelectionFamily:
    """Ordered family of label subsets realizing a selector or ssf.

    Set x*q + y (x < P, y < q) holds the labels l with p_l(x) = y; see the
    module docstring. size = P*q.
    """

    kind: str  # "ssf" | "selector"
    n_labels: int
    q: int
    K: int
    P: int
    c: Optional[int] = None  # ssf parameter
    k: Optional[int] = None  # selector parameters
    m: Optional[int] = None

    @property
    def size(self) -> int:
        return self.P * self.q

    @property
    def selection_c(self) -> Optional[int]:
        """Subset size whose members must all be isolated, if ssf-like.

        Selectors with m >= k are (m,m,N)-selectors, whose property is
        exactly that of an (N,m)-ssf.
        """
        if self.kind == "ssf":
            return self.c
        if self.m is not None and self.k is not None and self.m >= self.k:
            return self.m
        return None

    def contains(self, index: int, label: int) -> bool:
        if not (0 <= index < self.size):
            raise IndexError(index)
        return int(self.rounds_for(label)[index // self.q]) == index

    def rounds_for(self, label) -> np.ndarray:
        """Indices of the sets containing a label, ascending: a 1-D array of
        P. For an array of L labels, an (L, P) array, one row per label.
        IndexError for a label outside [1..N]."""
        digits = np.asarray(label, dtype=np.int64) - 1
        if digits.size and np.minimum.reduce(digits, axis=None) < 0:
            raise IndexError(f"label outside [1..{self.n_labels}]")
        if self.n_labels * self.P <= TABLE_ENTRIES:
            # take raises IndexError past the last row
            return _codewords(self.q, self.K, self.P, self.n_labels).take(digits, axis=0)
        if digits.size and np.maximum.reduce(digits, axis=None) >= self.n_labels:
            raise IndexError(f"label outside [1..{self.n_labels}]")
        return _rounds(self.q, self.K, self.P, digits[..., None])

    def membership(self, labels) -> np.ndarray:
        """(L, size) bool: row i marks the sets holding labels[i]."""
        rounds = self.rounds_for(np.asarray(labels, dtype=np.int64).reshape(-1))
        member = np.zeros((len(rounds), self.size), dtype=bool)
        member[np.arange(len(rounds))[:, None], rounds] = True
        return member

    def set_members(self, index: int) -> tuple[int, ...]:
        """Ascending labels of one set."""
        x, y = divmod(index, self.q)
        if not (0 <= x < self.P):
            raise IndexError(index)
        values = _horner(self.q, self.K, np.arange(self.n_labels, dtype=np.int64), x)
        return tuple(int(i) + 1 for i in np.flatnonzero(values == y))

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.set_members(j) for j in range(self.size))


def _horner(q: int, K: int, digits: np.ndarray, x) -> np.ndarray:
    """p_l(x) over GF(q) by Horner, for labels l = digits + 1. K = 1 is the
    identity: q = N, one set per label."""
    if K == 1:
        return digits
    gf = _field(q)
    v = digits // q ** (K - 1) % q
    for i in reversed(range(K - 1)):
        v = gf.add(gf.mul(v, x), digits // q**i % q)
    return v


def _rounds(q: int, K: int, P: int, digits: np.ndarray) -> np.ndarray:
    """x*q + p_l(x) for x < P, along a last axis of length 1 of digits."""
    x = np.arange(P, dtype=np.int64)
    return x * q + _horner(q, K, digits, x)


@lru_cache(maxsize=32)
def _codewords(q: int, K: int, P: int, n_labels: int) -> np.ndarray:
    """The codeword table of the (q, K, P) code over labels 1..n_labels:
    row l - 1 holds label l's P sets, ascending. Read-only int64, shared by
    every family of the code; at most TABLE_ENTRIES entries are asked for,
    so the cache holds at most 2 MB."""
    table = _rounds(q, K, P, np.arange(n_labels, dtype=np.int64)[:, None])
    table.flags.writeable = False
    return table


def _code(kind: str, n_labels: int, strength: int, **params) -> SelectionFamily:
    """The code of an (n_labels, strength)-ssf, labelled with kind and params."""
    q, k, p = code_parameters(n_labels, strength, kind)
    return SelectionFamily(kind=kind, n_labels=n_labels, q=q, K=k, P=p, **params)


def construct_ssf(n_labels: int, c: int) -> SelectionFamily:
    """(n_labels, c) strongly selective family, by construction."""
    if not (1 <= c <= n_labels):
        raise ValueError(f"need 1 <= c <= n_labels, got c={c}, n_labels={n_labels}")
    return _code("ssf", n_labels, c, c=c)


def construct_selector(k: int, m: int, n_labels: int) -> SelectionFamily:
    """(k, m, n_labels)-selector: the code of an (n_labels, max(k, m))-ssf.

    The m > k case is rewritten to an (m, m, n_labels)-selector, whose
    property coincides with that of an (n_labels, m)-ssf.
    """
    if not (1 <= m and 1 <= k <= n_labels):
        raise ValueError(f"need 1 <= k <= n_labels and m >= 1, got k={k}, m={m}")
    if m > n_labels:
        raise ValueError(f"selector needs m <= n_labels, got m={m}, n={n_labels}")
    k = max(k, m)
    return _code("selector", n_labels, k, k=k, m=m)


# ---------------------------------------------------------------------------
# Pair-label encoding for the (N*N, c*c)-ssf over ordered label pairs.


def pair_index(s: int, t: int, n_labels: int) -> int:
    """Row-major 1-based bijection (s, t) -> s*N + t - N."""
    if not (1 <= s <= n_labels and 1 <= t <= n_labels):
        raise ValueError(f"pair ({s},{t}) outside [1..{n_labels}]^2")
    return (s - 1) * n_labels + t


# ---------------------------------------------------------------------------
# Certification oracle: the counting certificate.


def _counting_certificate(family: SelectionFamily, c: int) -> bool:
    """True if min diag(G) > (c-1) max offdiag(G), G = M M^T over the 0/1
    membership rows M of every label: each label then has a set that no c-1
    others cover, so the family is (N, c)-strongly selective. False proves
    nothing."""
    member = family.membership(np.arange(1, family.n_labels + 1)).astype(np.float32)
    gram = member @ member.T  # 0/1 float32 products are exact below 2^24
    fewest = gram.diagonal().min()
    np.fill_diagonal(gram, 0.0)
    return bool(fewest > (c - 1) * gram.max())


# ---------------------------------------------------------------------------
# Certification oracle: batched spot-check sampling and subset enumeration.

def _n_words(size: int) -> int:
    return -(-size // 64)


def _chunk_rows(k: int, size: int) -> int:
    """Subsets per batch, so that the gathered (batch, k, words) rows and
    the sampler's draws each stay near CHUNK_WORDS uint64 words."""
    return max(1, CHUNK_WORDS // (k * max(2, _n_words(size))))


def _floyd_rows(n: int, k: int, seed: int, count: int, chunk: int):
    """Yield, chunk by chunk, `count` sorted rows of k distinct labels of
    range(n), drawn by Floyd's algorithm from `np.random.default_rng(seed)`.

    A row takes, for j = n-k .. n-1, a draw v on [0, j], or j if v was
    already taken. A chunk's draws come from one `integers` call, which
    consumes the stream in row order, so the rows do not depend on the chunk
    size. Chunks start at one row and double up to `chunk`, so that a
    family that fails early is not checked far past its witness.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    highs = np.arange(n - k + 1, n + 1)
    done = 0
    while done < count:
        b = min(chunk, count - done, done + 1)
        v = rng.integers(0, highs, size=(b, k))
        sel = np.empty_like(v)
        for t in range(k):
            dup = (sel[:, :t] == v[:, t, None]).any(axis=1)
            sel[:, t] = np.where(dup, n - k + t, v[:, t])
        sel.sort(axis=1)
        done += b
        yield sel


def _label_words(
    family: SelectionFamily, subsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Label-major bits of just the labels in `subsets` (0-based), read from
    the family's membership, and `subsets` re-indexed into them."""
    labels, inverse = np.unique(subsets.ravel(), return_inverse=True)
    bits = np.zeros((labels.size, 64 * _n_words(family.size)), dtype=bool)
    bits[:, : family.size] = family.membership(labels + 1)
    words = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    return words, inverse.reshape(subsets.shape)


def _isolated_counts(words: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Per subset (row of label indices into `words`), how many members
    some set isolates: holds that member and no other of the subset."""
    rows = words[subsets]  # (batch, k, words)
    ones = np.zeros((subsets.shape[0], words.shape[1]), dtype=np.uint64)
    many = np.zeros_like(ones)
    tmp = np.empty_like(ones)
    for i in range(subsets.shape[1]):
        np.bitwise_and(ones, rows[:, i], out=tmp)
        many |= tmp
        ones |= rows[:, i]
    ones &= ~many  # sets that hold exactly one member
    counts = np.zeros(subsets.shape[0], dtype=np.int64)
    for i in range(subsets.shape[1]):
        np.bitwise_and(rows[:, i], ones, out=tmp)
        counts += tmp.any(axis=1)
    return counts


def _first_failure(
    family: SelectionFamily, batches, need: int
) -> Optional[tuple[int, ...]]:
    """First subset, over batches of 0-based label rows in order, in which
    fewer than `need` members are isolated."""
    for subsets in batches:
        counts = _isolated_counts(*_label_words(family, subsets))
        bad = np.flatnonzero(counts < need)
        if bad.size:
            return tuple(int(x) + 1 for x in subsets[bad[0]])
    return None


def _enumerate(
    family: SelectionFamily, k: int, need: int
) -> Optional[tuple[int, ...]]:
    """Exhaustive check over every k-subset, in lexicographic order.

    For an ssf-style check (need = k = c), isolation in size-c subsets
    implies it in smaller ones (extend any smaller subset to size c; an
    isolating set for the extension isolates in the restriction), so
    enumerating size c alone is complete.
    """
    combos = combinations(range(family.n_labels), k)
    chunk = _chunk_rows(k, family.size)

    def batches():
        while True:
            flat = np.fromiter(chain.from_iterable(islice(combos, chunk)), np.int64)
            if not flat.size:
                return
            yield flat.reshape(-1, k)

    return _first_failure(family, batches(), need)


def _spot_check(
    family: SelectionFamily, k: int, need: int
) -> Optional[tuple[int, ...]]:
    """SAMPLES seeded random k-subsets; returns the first with < need isolated."""
    chunk = _chunk_rows(k, family.size)
    rows = _floyd_rows(family.n_labels, k, spot_seed(family), SAMPLES, chunk)
    return _first_failure(family, rows, need)


def spot_seed(family: SelectionFamily) -> int:
    """Seed of a family's spot-check subsets, derived from its parameters so
    that a verdict is reproducible."""
    return derive_seed(0, "spot", family.kind, family.n_labels, family.c, family.k, family.m)


@dataclass(frozen=True)
class CertifyResult:
    ok: bool
    mode: str  # "exhaustive" | "spot-checked"
    counterexample: Optional[tuple[int, ...]] = None
    samples: Optional[int] = None


def certify(family: SelectionFamily) -> CertifyResult:
    """Verify the family's selection property from its membership alone.

    An ssf-like family over at most EXACT_LABEL_CUTOFF labels is first
    tried on the counting certificate (`_counting_certificate`); a proof is
    exact ("exhaustive"). Otherwise, or if the certificate declines, every
    subset is enumerated when there are at most ENUM_CUTOFF of them
    ("exhaustive", with the first failing subset in lexicographic order),
    and failing that a seeded random spot-check runs ("spot-checked").

    The spot-check tests SAMPLES subsets of c labels (k for a selector
    with m < k), drawn by Floyd's algorithm from
    `np.random.default_rng(spot_seed(family))` (see `_floyd_rows`). The
    counterexample is the first of them in which fewer than c members (m
    for a selector) are isolated.
    """
    c_eff = family.selection_c
    if c_eff is None:  # a genuine (k,m,N)-selector with m < k
        k, need = family.k, family.m
    elif family.n_labels <= EXACT_LABEL_CUTOFF and _counting_certificate(family, c_eff):
        return CertifyResult(True, "exhaustive")
    else:
        k = need = min(c_eff, family.n_labels)
    if math.comb(family.n_labels, k) <= ENUM_CUTOFF:
        witness = _enumerate(family, k, need)
        return CertifyResult(witness is None, "exhaustive", witness)
    witness = _spot_check(family, k, need)
    return CertifyResult(witness is None, "spot-checked", witness, SAMPLES)
