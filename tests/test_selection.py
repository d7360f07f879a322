import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sinrbackbone import selection
from sinrbackbone.selection import (
    SAMPLES,
    CertifyResult,
    SelectionFamily,
    certify,
    code_parameters,
    construct_selector,
    construct_ssf,
    derive_seed,
    pair_index,
    spot_seed,
)

from family_schedule import leader_buckets


@dataclass
class ExplicitFamily(SelectionFamily):
    """A family given by its sets, for checking the oracle on families that
    are not codes (and may fail)."""

    matrix: np.ndarray = None  # (size, n_labels) bool

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def membership(self, labels) -> np.ndarray:
        return self.matrix[:, np.asarray(labels).reshape(-1) - 1].T

    def set_members(self, index: int) -> tuple[int, ...]:
        return tuple(int(i) + 1 for i in np.flatnonzero(self.matrix[index]))


def family_from_matrix(matrix, kind="ssf", **kw):
    return ExplicitFamily(
        kind=kind, n_labels=matrix.shape[1], q=0, K=0, P=0, matrix=matrix, **kw
    )


def family_from_sets(sets, n_labels, kind="ssf", **kw):
    matrix = np.zeros((len(sets), n_labels), dtype=bool)
    for j, s in enumerate(sets):
        for x in s:
            matrix[j, x - 1] = True
    return family_from_matrix(matrix, kind, **kw)


def ssf_holds_bruteforce(sets, n_labels, c):
    """Independent oracle: sorted-list intersections over explicit subsets."""
    for size in range(1, c + 1):
        for S in combinations(range(1, n_labels + 1), size):
            for e in S:
                if not any(sorted(set(st) & set(S)) == [e] for st in sets):
                    return False
    return True


def test_singletons_are_strongly_selective():
    fam = family_from_sets([(i,) for i in range(1, 6)], 5, c=5)
    res = certify(fam)
    assert res.ok and res.mode == "exhaustive"


def test_empty_family_fails_with_counterexample():
    fam = family_from_sets([], 2, c=1)
    res = certify(fam)
    assert not res.ok
    assert res.counterexample == (1,)


def test_construct_ssf_8_2_certified_and_cross_checked():
    fam = construct_ssf(8, 2)
    assert certify(fam) == CertifyResult(True, "exhaustive")
    assert ssf_holds_bruteforce(fam.sets, 8, 2)


def test_certify_agrees_with_bruteforce_on_random_families():
    import random

    rng = random.Random(11)
    for trial in range(25):
        n, c = 7, rng.randint(1, 4)
        sets = [
            tuple(x for x in range(1, n + 1) if rng.random() < 0.3)
            for _ in range(rng.randint(0, 14))
        ]
        fam = family_from_sets(sets, n, c=c)
        assert certify(fam).ok == ssf_holds_bruteforce(sets, n, c)


def test_construct_ssf_determinism():
    # a family is a function of (N, c) alone
    a, b = construct_ssf(64, 3), construct_ssf(64, 3)
    assert a == b and a.sets == b.sets
    assert construct_ssf(64, 4).sets != a.sets


def test_construct_ssf_validates_parameters():
    with pytest.raises(ValueError):
        construct_ssf(4, 5)
    with pytest.raises(ValueError):
        construct_ssf(4, 0)


def test_singleton_family_is_a_2_2_selector():
    fam = family_from_sets([(1,), (2,), (3,), (4,)], 4, kind="selector", k=2, m=2)
    assert certify(fam).ok


def test_construct_selector_3_1_6_exhaustive():
    fam = construct_selector(3, 1, 6)
    assert certify(fam) == CertifyResult(True, "exhaustive")
    # oracle: every 3-subset has at least one isolated element
    for S in combinations(range(1, 7), 3):
        isolated = {
            e
            for e in S
            if any(sorted(set(st) & set(S)) == [e] for st in fam.sets)
        }
        assert len(isolated) >= 1


def test_selector_m_above_k_is_rewritten():
    fam = construct_selector(2, 5, 16)
    assert fam.k == 5 and fam.m == 5
    assert certify(fam) == CertifyResult(True, "exhaustive")


def test_pair_encoding_row_major():
    n = 16
    assert pair_index(2, 3, n) == 2 * n + 3 - n
    seen = set()
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            idx = pair_index(s, t, n)
            assert 1 <= idx <= n * n
            assert divmod(idx - 1, n) == (s - 1, t - 1)
            seen.add(idx)
    assert len(seen) == n * n


def test_pair_space_lift_certifies():
    # an (N^2, c^2)-ssf over pair labels goes through the same oracle
    n, c = 8, 2
    fam = construct_ssf(n * n, c * c)
    assert fam.n_labels == 64
    res = certify(fam)
    assert res.ok and res.mode == "exhaustive"


def test_size_tracking_report():
    # informational: constructed sizes against the c^2 lg N shape
    worst = 0.0
    for n, c in [(64, 4), (64, 6), (256, 4)]:
        fam = construct_ssf(n, c)
        k_fit = fam.size / (c * c * math.log2(n))
        worst = max(worst, k_fit)
        print(f"ssf({n},{c}): size={fam.size} K={k_fit:.2f}")
    assert worst < 50  # sanity only; the bound itself is reported, not enforced


def test_lazy_family_membership_consistency():
    # membership is evaluated on demand, from the label alone: every read
    # (one label, a batch of labels, one set, one (set, label) test) agrees
    fam = construct_ssf(65536, 4)
    labels = (1, 17, 4097, 65536)
    batch = fam.rounds_for(np.array(labels))
    assert batch.shape == (len(labels), fam.P)
    for label, row in zip(labels, batch.tolist()):
        rounds = fam.rounds_for(label)
        assert rounds.tolist() == row == sorted(row)
        assert [j // fam.q for j in row] == list(range(fam.P))  # one set per point
        for j in range(fam.size):
            assert fam.contains(j, label) == (j in row)
        for j in row[:2]:
            assert label in fam.set_members(j)
    with pytest.raises(IndexError):
        fam.contains(fam.size, 1)


def test_selected_matches_membership_everywhere():
    # a label is selected in round j (contains) iff it is a member of set j
    for n_labels, c in ((16, 3), (64, 4), (64, 2)):
        fam = construct_ssf(n_labels, c)
        for j in range(fam.size):
            members = set(fam.set_members(j))
            for lab in range(1, n_labels + 1):
                assert fam.contains(j, lab) == (lab in members)


def test_exhaustive_mode_forced_at_small_label_spaces():
    # label spaces up to 64 always get an exact verdict, even when subset
    # enumeration would be astronomically large: C(64, 5) and C(64, 14)
    # are both past ENUM_CUTOFF
    for c in (5, 14):
        assert certify(construct_ssf(64, c)) == CertifyResult(True, "exhaustive")


# ---------------------------------------------------------------------------
# The construction against the oracle.


def test_certify_proves_every_code_over_64_labels():
    for c in range(1, 23):
        fam = construct_ssf(64, c)
        assert certify(fam) == CertifyResult(True, "exhaustive"), (c, fam)


def _run_families(n_labels, deltas, c=4):
    """Every family a demo-mode run over n_labels builds, for the degrees."""
    fams = [construct_ssf(n_labels, c), construct_ssf(n_labels**2, c * c)]
    fams += [
        construct_selector(k, m, n_labels)
        for delta in deltas
        for k, m in leader_buckets(delta)
    ]
    distinct = {}
    for fam in fams:
        distinct.setdefault((fam.kind, fam.n_labels, fam.c, fam.k, fam.m), fam)
    return list(distinct.values())


def test_certify_passes_every_battery_and_sweep_family(monkeypatch):
    # the acceptance battery runs N = 64 at degrees up to about 20, and
    # criterion 8's grid runs N = 64, 256, 1024 at degrees 4..24; only the
    # pair ssfs of N = 256 and 1024 are past the counting certificate
    monkeypatch.setattr(selection, "SAMPLES", 2000)
    for n_labels in (64, 256, 1024):
        for fam in _run_families(n_labels, range(1, 31)):
            res = certify(fam)
            assert res.ok, (fam, res)
            exact = fam.n_labels <= 4096
            assert res.mode == ("exhaustive" if exact else "spot-checked"), (fam, res)


def _exactly_provable_families():
    """Every family a demo-mode run over N = 64, 256 or 1024 builds for
    degrees up to 30, and the pair ssf of N = 64: the label spaces whose
    Gram matrix fits in memory."""
    for n_labels in (64, 256, 1024):
        for fam in _run_families(n_labels, range(1, 31)):
            if fam.n_labels == n_labels:
                yield fam
    yield construct_ssf(64 * 64, 16)


def test_every_run_family_is_proved_by_its_code(monkeypatch):
    # the code's premises, then an exact proof of the family from its
    # membership alone, at every label space a run uses up to 4096
    proved = set()
    for fam in _exactly_provable_families():
        q, K, P, c = fam.q, fam.K, fam.P, fam.selection_c
        assert c is not None, fam  # every selector here has m >= k
        if K == 1:
            assert (q, P) == (fam.n_labels, 1), fam
        else:
            # ssfs over a prime field, selectors over any prime power
            d = next(d for d in range(2, q + 1) if q % d == 0)
            assert d ** round(math.log(q, d)) == q, fam
            assert fam.kind == "selector" or d == q, fam
            assert P <= q and q**K >= fam.n_labels, fam
            assert P == (c - 1) * (K - 1) + 1, fam
        monkeypatch.setattr(selection, "EXACT_LABEL_CUTOFF", fam.n_labels)
        res = certify(fam)
        assert res == CertifyResult(True, "exhaustive"), (fam, res)
        proved.add(fam.n_labels)
    assert proved == {64, 256, 1024, 4096}


def test_certificate_declines_at_equality_and_enumeration_decides():
    # one set {1, 2}: diag 1 = (c-1) * offdiag 1, and the pair {1, 2} is
    # never split
    fam = family_from_sets([(1, 2)], 2, c=2)
    assert certify(fam) == CertifyResult(False, "exhaustive", (1, 2))


def test_certificate_declines_on_an_ssf_that_enumeration_proves():
    # label 4 is in one set, and labels 1-3 share one set pairwise, so the
    # certificate declines; every pair is still split
    fam = family_from_sets([(1, 2), (1, 3), (2, 3), (4,)], 4, c=2)
    assert certify(fam) == CertifyResult(True, "exhaustive")


@pytest.mark.parametrize("n_labels, samples", [(4096, SAMPLES), (2**20, 20_000)])
def test_pair_families_pass_the_batched_spot_check(n_labels, samples, monkeypatch):
    # the pair ssfs of N = 64 and N = 1024: the first, over 4096 labels, is
    # proved by the counting certificate; the second is spot-checked, the
    # words of each batch's labels read from the arithmetic membership
    fam = construct_ssf(n_labels, 16)
    if n_labels == 4096:
        expected = CertifyResult(True, "exhaustive")
    else:
        expected = CertifyResult(True, "spot-checked", None, samples)
    monkeypatch.setattr(selection, "SAMPLES", samples)
    assert certify(fam) == expected


def test_base_ssf_is_proved_exactly_above_64_labels():
    for n_labels, c in ((256, 4), (1024, 4), (1024, 7)):
        res = certify(construct_ssf(n_labels, c))
        assert res == CertifyResult(True, "exhaustive")


WORST_CASE_CODES = [
    (64, 2), (64, 3), (64, 4), (64, 5), (64, 8), (256, 4), (1024, 4),
    (1024, 7), (1024, 12), (1024, 22), (4096, 16), (2**20, 16),
]


def _monic_with_roots(roots, q):
    """Coefficients, lowest first, of prod (X - r) over GF(q)."""
    poly = [1]
    for r in roots:
        poly = [
            ((poly[i - 1] if i else 0) - r * (poly[i] if i < len(poly) else 0)) % q
            for i in range(len(poly) + 1)
        ]
    return poly


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_worst_case_subsets_still_isolate_each_member(data):
    # u plus c-1 others whose polynomials each agree with p_u on K-1 points,
    # all on different points: the others cover P-1 of u's P sets, and the
    # set at the one point left over isolates u
    n_labels, c = data.draw(st.sampled_from(WORST_CASE_CODES))
    fam = construct_ssf(n_labels, c)
    q, K, P = fam.q, fam.K, fam.P
    u = data.draw(st.integers(1, n_labels))
    if K == 1:
        others = data.draw(
            st.lists(st.integers(1, n_labels), min_size=c - 1, max_size=c - 1, unique=True)
        )
        assume(u not in others)
        free = 0
    else:
        points = data.draw(st.permutations(range(P)))
        free = points[-1]
        u_digits = [(u - 1) // q**i % q for i in range(K)]
        # a top coefficient below `top` keeps a polynomial's label in range
        top = (n_labels - 1) // q ** (K - 1)
        tops = [t for t in range(top) if t != u_digits[-1]]
        assume(tops)
        others = []
        for g in range(c - 1):
            roots = points[g * (K - 1) : (g + 1) * (K - 1)]
            lam = (data.draw(st.sampled_from(tops)) - u_digits[-1]) % q
            diff = _monic_with_roots(roots, q)
            digits = [(u_digits[i] + lam * diff[i]) % q for i in range(K)]
            others.append(1 + sum(d * q**i for i, d in enumerate(digits)))
        assert len(set(others)) == c - 1 and u not in others
        assert max(others) <= n_labels
    mine = fam.rounds_for(u)
    covered = set()
    for v in others:
        shared = set(mine.tolist()) & set(fam.rounds_for(v).tolist())
        assert len(shared) <= K - 1
        covered |= shared
    assert set(mine.tolist()) - covered == {int(mine[free])}
    rows = fam.membership([u] + others)
    assert rows[0, mine[free]] and not rows[1:, mine[free]].any()


def test_code_parameters_give_the_smallest_code():
    # brute force over every admissible q and every K: the smallest P*q with
    # q >= P = (c-1)(K-1)+1 and q^K >= N, against N singleton sets; an ssf
    # takes a prime q, a selector any prime power
    limit = 4096
    primes = [p for p in range(2, limit + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    prime_powers = sorted({p**r for p in primes for r in range(1, 13) if p**r <= limit})
    for kind, fields in (("ssf", primes), ("selector", prime_powers)):
        admissible = set(fields)
        for c in range(1, 25):
            best = np.arange(limit + 1)
            for K in range(2, 25):
                P = (c - 1) * (K - 1) + 1
                for q in fields:
                    if P * q >= limit:
                        break
                    if q >= P:
                        reach = min(q**K, limit)
                        best[1 : reach + 1] = np.minimum(best[1 : reach + 1], P * q)
            for n in range(c, limit + 1):
                q, K, P = code_parameters(n, c, kind)
                assert P * q == best[n], (kind, n, c, q, K, P)
                if K == 1:
                    assert (q, P) == (n, 1)
                else:
                    assert q in admissible and q**K >= n and P == (c - 1) * (K - 1) + 1 <= q


# ---------------------------------------------------------------------------
# GF(q) table arithmetic.

PRIMES_TO_127 = [q for q in range(2, 128) if all(q % d for d in range(2, math.isqrt(q) + 1))]
PRIME_POWERS_TO_64 = sorted(
    {p**r for p in PRIMES_TO_127 for r in range(1, 7) if p**r <= 64}
)


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_field_tables_satisfy_the_field_axioms(q):
    # exhaustively over every pair and triple of elements
    gf = selection._field(q)
    a, b, c = np.ix_(np.arange(q), np.arange(q), np.arange(q))
    add, mul = gf.add, gf.mul
    for op, unit in ((add, 0), (mul, 1)):
        table = op(a[:, :, 0], b[:, :, 0])
        assert table.min() >= 0 and table.max() < q
        assert np.array_equal(table, table.T)  # commutative
        assert np.array_equal(op(op(a, b), c), op(a, op(b, c)))  # associative
        assert np.array_equal(table[unit], np.arange(q))  # identity
    sums = add(a[:, :, 0], b[:, :, 0])
    assert ((sums == 0).sum(axis=1) == 1).all()  # additive inverses
    products = mul(a[1:, :, 0], b[:, 1:, 0])
    assert ((products == 1).sum(axis=1) == 1).all()  # inverses of non-zero
    assert (mul(a[0, :, 0], b[0]) == 0).all()
    assert np.array_equal(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))  # distributive


@pytest.mark.parametrize("q", PRIMES_TO_127)
def test_prime_field_tables_are_arithmetic_mod_q(q):
    gf = selection._field(q)
    a, b = np.ix_(np.arange(q), np.arange(q))
    assert np.array_equal(gf.add(a, b), (a + b) % q)
    assert np.array_equal(gf.mul(a, b), a * b % q)


def test_prime_power_factors_only_prime_powers():
    for n in range(130):
        got = selection._prime_power(n)
        expected = next(
            ((p, r) for p in PRIMES_TO_127 for r in range(1, 8) if p**r == n), None
        )
        assert got == expected, n


def _rounds_mod_q(fam, labels):
    """Set indices by Horner mod q, as the codes were built over prime q."""
    q, digits = fam.q, np.asarray(labels, dtype=np.int64)[:, None] - 1
    x = np.arange(fam.P, dtype=np.int64)
    v = 0
    for i in reversed(range(fam.K)):
        v = (v * x + digits // q**i % q) % q
    return x * q + v


@pytest.mark.parametrize(
    "n_labels, c, q, K, P",
    [
        (64, 4, 11, 2, 4),
        (256, 4, 7, 3, 7),
        (1024, 4, 11, 3, 7),
        (64**2, 16, 31, 3, 31),
        (256**2, 16, 41, 3, 31),
        (1024**2, 16, 47, 4, 46),
    ],
)
def test_run_ssfs_keep_their_prime_codes(n_labels, c, q, K, P):
    # the base ssfs of N = 64, 256 and 1024 and their pair ssfs carry the
    # transmissions, so they stay over prime fields, set for set
    fam = construct_ssf(n_labels, c)
    assert (fam.q, fam.K, fam.P) == (q, K, P) and q in PRIMES_TO_127
    if n_labels <= 2**16:
        labels = np.arange(1, n_labels + 1)
    else:
        labels = np.random.default_rng(7).integers(1, n_labels + 1, 50_000)
        labels = np.concatenate([labels, [1, n_labels]])
    assert np.array_equal(fam.rounds_for(labels), _rounds_mod_q(fam, labels))


@pytest.mark.parametrize(
    "n_labels, c, q, K, P",
    [
        (64, 4, 11, 2, 4),
        (256, 4, 7, 3, 7),
        (1024, 4, 11, 3, 7),
        (1024, 22, 37, 2, 22),
        (64 * 64, 16, 31, 3, 31),
        (1024 * 1024, 16, 47, 4, 46),
        (64, 64, 64, 1, 1),
    ],
)
def test_family_code_parameters_are_pinned(n_labels, c, q, K, P):
    # the base ssfs of N = 64, 256 and 1024, the (1024, 22)-ssf (the largest
    # sweep selector's strength, whose selector is built over GF(32)), the
    # pair ssfs of N = 64 and 1024, and the round robin of a non-demo run
    fam = construct_ssf(n_labels, c)
    assert (fam.q, fam.K, fam.P, fam.size) == (q, K, P, P * q)


@pytest.mark.parametrize(
    "n_labels, k, q, K, P",
    [
        (64, 2, 4, 3, 3),
        (64, 3, 8, 2, 3),
        (64, 7, 8, 2, 7),
        (64, 8, 64, 1, 1),
        (256, 5, 16, 2, 5),
        (1024, 8, 16, 3, 15),
        (1024, 22, 32, 2, 22),
    ],
)
def test_selector_code_parameters_are_pinned(n_labels, k, q, K, P):
    # leader election's selectors take the smallest code over prime powers:
    # GF(4), GF(8), GF(16) and GF(32) on the sweep grid, and a round robin
    # once no code beats N sets
    fam = construct_selector(k, k, n_labels)
    assert (fam.q, fam.K, fam.P, fam.size) == (q, K, P, P * q)
    assert certify(fam) == CertifyResult(True, "exhaustive")


def test_spot_checked_base_ssf_isolates_label_6_from_20_88_221():
    # the witnesses that random families built for N = 256 and 1024 once
    # failed: label 6 was never isolated from these three others
    for n_labels, others in ((256, (20, 88, 221)), (1024, (66, 237, 743))):
        rows = construct_ssf(n_labels, 4).membership([6, *others])
        assert (rows[0] & ~rows[1:].any(axis=0)).any()


# ---------------------------------------------------------------------------
# Spot-check subsets and the batched isolation kernel.


def test_spot_check_rows_do_not_depend_on_the_chunk_size():
    # each row is k distinct labels of range(n), sorted, and the rows are
    # the same whether a chunk holds 7 rows or 4096
    for n in (64, 256, 1024, 4096, 2**20):
        for k in (1, 4, 16, 21) + ((n,) if n <= 4096 else ()):
            count = 2 if k == n else 1500
            for seed in (derive_seed(1, "spot", 0), derive_seed(20, "spot", 0)):
                rows = [
                    np.concatenate(list(selection._floyd_rows(n, k, seed, count, chunk)))
                    for chunk in (7, 4096)
                ]
                assert np.array_equal(rows[0], rows[1]), (n, k, seed)
                got = rows[0]
                assert got.shape == (count, k)
                assert (np.diff(got, axis=1) > 0).all()
                assert got.min() >= 0 and got.max() < n
    with pytest.raises(ValueError):
        next(selection._floyd_rows(4, 5, 1, 1, 1))


def _others_or(row_list):
    """For each position i, OR of all rows except i (prefix/suffix scan)."""
    n = len(row_list)
    pre = [0] * (n + 1)
    for i, r in enumerate(row_list):
        pre[i + 1] = pre[i] | r
    suf = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suf[i] = suf[i + 1] | row_list[i]
    return [pre[i] | suf[i + 1] for i in range(n)]


def _isolated(rows_of):
    """Per member of a subset (its rows as ints): isolated by some set."""
    others = _others_or(rows_of)
    return [bool(r & ~o) for r, o in zip(rows_of, others)]


def _floyd_row(gen, n, k):
    """One sorted row of Floyd's algorithm, one scalar draw at a time."""
    chosen = set()
    for j in range(n - k, n):
        v = int(gen.integers(0, j + 1))
        chosen.add(j if v in chosen else v)
    return sorted(chosen)


def reference_spot_check(family, samples=SAMPLES):
    """The spot-check with one scalar Floyd row and one big-int scan per
    sample, as it ran before batching; the reference for certify's
    spot-check."""
    gen = np.random.default_rng(spot_seed(family))
    if family.selection_c is not None:
        k = need = min(family.selection_c, family.n_labels)
    else:
        k, need = family.k, family.m

    def row(e):
        bits = np.packbits(family.membership([e])[0], bitorder="little")
        return int.from_bytes(bits.tobytes(), "little")

    for _ in range(samples):
        combo = [x + 1 for x in _floyd_row(gen, family.n_labels, k)]
        if sum(_isolated([row(e) for e in combo])) < need:
            return CertifyResult(False, "spot-checked", tuple(combo), samples)
    return CertifyResult(True, "spot-checked", None, samples)


def random_family(n_labels, size, seed, kind="ssf", **params):
    """Each label in each set with probability 1/c (1/k for a selector)."""
    prob = 1.0 / (params["c"] if kind == "ssf" else params["k"])
    matrix = np.random.default_rng(seed).random((size, n_labels)) < prob
    return family_from_matrix(matrix, kind, **params)


DIFFERENTIAL_CASES = [
    # (n_labels, size, kind, params, samples); small sizes fail, large pass
    *[
        (n, size, "ssf", {"c": 4}, 3000)
        for n in (256, 1024, 4096)
        for size in (24, 48, 96, 160)
    ],
    (256, 200, "ssf", {"c": 4}, SAMPLES),
    (4096, 400, "ssf", {"c": 9}, 2000),
    (20000, 80, "ssf", {"c": 3}, 1024),
    (20000, 40, "ssf", {"c": 3}, 1024),
    (256, 30, "selector", {"k": 6, "m": 2}, 3000),
    (256, 8, "selector", {"k": 6, "m": 2}, 3000),
    (256, 12, "selector", {"k": 6, "m": 3}, 3000),
    (256, 40, "selector", {"k": 10, "m": 4}, 3000),
    (256, 16, "selector", {"k": 10, "m": 4}, 3000),
    (256, 100, "selector", {"k": 10, "m": 8}, 3000),
    (256, 40, "selector", {"k": 10, "m": 8}, 3000),
]


def test_batched_spot_check_equals_scalar_reference(monkeypatch):
    # no enumeration and no counting certificate: every family is spot-checked
    monkeypatch.setattr(selection, "ENUM_CUTOFF", 0)
    monkeypatch.setattr(selection, "EXACT_LABEL_CUTOFF", 0)
    verdicts = set()
    for i, (n, size, kind, params, samples) in enumerate(DIFFERENTIAL_CASES):
        fam = random_family(n, size, 1000 + i, kind, **params)
        monkeypatch.setattr(selection, "SAMPLES", samples)
        got = certify(fam)
        assert got == reference_spot_check(fam, samples), (n, size, kind, params)
        verdicts.add((kind, got.ok))
    # both verdicts, for ssfs and for selectors
    assert verdicts == {(kind, ok) for kind in ("ssf", "selector") for ok in (True, False)}
    # and the codes, whose words come from the arithmetic membership
    monkeypatch.setattr(selection, "SAMPLES", 300)
    for fam in (construct_ssf(1024, 4), construct_ssf(2**20, 16), construct_selector(9, 3, 256)):
        got = certify(fam)
        assert got == reference_spot_check(fam, 300) == CertifyResult(
            True, "spot-checked", None, 300
        )


def _n_isolated(sets, subset):
    return sum(any(set(st) & set(subset) == {e} for st in sets) for e in subset)


def test_batched_enumeration_finds_the_first_violation(monkeypatch):
    # subset enumeration runs the same kernel; its witness is the first
    # failing subset in lexicographic order, as a plain scan finds it
    monkeypatch.setattr(selection, "EXACT_LABEL_CUTOFF", 0)
    verdicts = set()
    for i, (n, k, m, size) in enumerate(
        [(70, 2, 2, 20), (70, 2, 2, 90), (12, 4, 2, 5), (12, 4, 2, 30)]
    ):
        kind, params = ("ssf", {"c": k}) if k == m else ("selector", {"k": k, "m": m})
        fam = random_family(n, size, 50 + i, kind, **params)
        sets, subsets = fam.sets, combinations(range(1, n + 1), k)
        first = next((S for S in subsets if _n_isolated(sets, S) < m), None)
        res = certify(fam)
        assert res == CertifyResult(first is None, "exhaustive", first)
        verdicts.add((kind, res.ok))
    assert len(verdicts) == 4


# ---------------------------------------------------------------------------
# Codeword tables.

FIELD_ORDERS = (2, 3, 5, 7, 8, 9, 11, 13, 16, 32)


@st.composite
def codes(draw):
    """A code family: a K = 1 round robin, or (q, K, P) over a prime or
    prime-power field with q^K >= N and P <= q; an ssf over a prime field,
    a selector over the others."""
    K = draw(st.integers(1, 3))
    if K == 1:
        n = draw(st.integers(1, 200))
        return SelectionFamily(kind="ssf", n_labels=n, q=n, K=1, P=1)
    q = draw(st.sampled_from(FIELD_ORDERS))
    n = draw(st.integers(1, min(q**K, 3000)))
    kind = "ssf" if selection._prime_power(q)[1] == 1 else "selector"
    return SelectionFamily(kind=kind, n_labels=n, q=q, K=K, P=draw(st.integers(1, q)))


def _table_spy(mp):
    """Have selection._codewords record the codes it is asked for."""
    built, real = [], selection._codewords
    mp.setattr(selection, "_codewords", lambda *code: built.append(code) or real(*code))
    return built


@settings(max_examples=300, deadline=None)
@given(fam=codes(), data=st.data())
def test_codeword_tables_match_horner_bit_for_bit(fam, data):
    # the same rows from the table and from Horner, for one label (an int
    # and a NumPy scalar) and for an array of labels in any order, with the
    # budget on either side of the family's labels x points
    labels = np.array(data.draw(st.lists(st.integers(1, fam.n_labels), max_size=40)), np.int64)
    label = data.draw(st.integers(1, fam.n_labels))
    entries = fam.n_labels * fam.P
    budget = data.draw(st.integers(max(0, entries - 2), entries + 2) | st.integers(0, 2 * entries))
    reads = (labels, label, np.int64(label))
    with pytest.MonkeyPatch.context() as mp:
        built = _table_spy(mp)
        mp.setattr(selection, "TABLE_ENTRIES", 0)
        horner = [fam.rounds_for(x) for x in reads]
        assert built == []
        mp.setattr(selection, "TABLE_ENTRIES", budget)
        got = [fam.rounds_for(x) for x in reads]
    assert built == ([(fam.q, fam.K, fam.P, fam.n_labels)] * 3 if entries <= budget else [])
    for g, h, shape in zip(got, horner, ((len(labels), fam.P), (fam.P,), (fam.P,))):
        assert g.dtype == h.dtype == np.int64 and g.shape == h.shape == shape
        assert np.array_equal(g, h)
    if fam.q == fam.n_labels or selection._prime_power(fam.q)[1] == 1:  # arithmetic mod q
        assert np.array_equal(got[0], _rounds_mod_q(fam, labels))
    if entries <= budget:
        table = selection._codewords(fam.q, fam.K, fam.P, fam.n_labels)
        assert table is selection._codewords(fam.q, fam.K, fam.P, fam.n_labels)  # kept
        assert table.dtype == np.int64 and table.shape == (fam.n_labels, fam.P)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = -1


def test_codeword_tables_are_kept_per_code_and_label_space():
    # families of one field and degree with other points or label spaces
    # each read their own rows
    for n_labels, P in ((64, 4), (64, 7), (100, 4), (121, 11), (121, 4)):
        fam = SelectionFamily(kind="ssf", n_labels=n_labels, q=11, K=2, P=P)
        labels = np.arange(1, n_labels + 1)
        assert np.array_equal(fam.rounds_for(labels), _rounds_mod_q(fam, labels))
        assert np.array_equal(fam.rounds_for(labels[::-1]), _rounds_mod_q(fam, labels[::-1]))


@pytest.mark.parametrize("n_labels", [64, 4096])
def test_labels_outside_the_label_space_are_rejected(n_labels):
    # the (64, 4)-ssf reads its table; the (4096, 4)-ssf (4096 x 10
    # entries) is past the budget, reads Horner and never builds a table.
    # Labels 1 and N are read; 0 and N + 1 are in no set (set_members) and
    # raise, as a set index outside the family does
    fam = construct_ssf(n_labels, 4)
    tabulated = n_labels == 64
    assert (fam.n_labels * fam.P <= selection.TABLE_ENTRIES) == tabulated
    with pytest.MonkeyPatch.context() as mp:
        built = _table_spy(mp)
        for label in (1, n_labels):
            rounds = fam.rounds_for(label)
            assert np.array_equal(rounds, _rounds_mod_q(fam, [label])[0])
            assert np.array_equal(fam.rounds_for(np.array([label, label])), [rounds, rounds])
            for j in rounds.tolist():
                assert fam.contains(j, label) and label in fam.set_members(j)
        for label in (0, n_labels + 1, -1):
            with pytest.raises(IndexError):
                fam.rounds_for(label)
            with pytest.raises(IndexError):
                fam.rounds_for(np.array([1, label, n_labels]))
            for j in range(0, fam.size, fam.q // 2):
                with pytest.raises(IndexError):
                    fam.contains(j, label)
    assert bool(built) == tabulated
    if tabulated:  # the 64-label base ssf read label 0 as [10 20 30 40]
        assert fam.set_members(10) == tuple(
            lab for lab in range(1, 65) if 10 in fam.rounds_for(lab).tolist()
        )
