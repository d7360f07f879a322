import math
from itertools import combinations

import numpy as np
import pytest

from sinrbackbone import selection
from sinrbackbone.errors import CursorExhaustedError, FamilySizeCapError
from sinrbackbone.selection import (
    LAZY_LABEL_THRESHOLD,
    SAMPLES_LAZY,
    SAMPLES_MATERIALIZED,
    CertifyResult,
    RoundSchedule,
    SelectionFamily,
    certify,
    construct_selector,
    construct_ssf,
    derive_seed,
    pair_index,
    pair_unindex,
    parse_family,
    selected,
    serialize_family,
)


def family_from_sets(sets, n_labels, kind="ssf", **kw):
    matrix = np.zeros((len(sets), n_labels), dtype=bool)
    for j, s in enumerate(sets):
        for x in s:
            matrix[j, x - 1] = True
    return SelectionFamily(
        kind=kind,
        n_labels=n_labels,
        seed=0,
        size=len(sets),
        _matrix=np.packbits(matrix, axis=1),
        **kw,
    )


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
    fam = construct_ssf(8, 2, seed=5)
    assert fam.certified and fam.verification == "exhaustive"
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
    a = serialize_family(construct_ssf(64, 3, seed=9))
    b = serialize_family(construct_ssf(64, 3, seed=9))
    assert a == b
    other = serialize_family(construct_ssf(64, 3, seed=10))
    assert other != a


def test_construct_ssf_validates_parameters():
    with pytest.raises(ValueError):
        construct_ssf(4, 5, seed=1)
    with pytest.raises(ValueError):
        construct_ssf(4, 0, seed=1)


def test_size_cap_error():
    with pytest.raises(FamilySizeCapError):
        construct_ssf(64, 8, seed=1, size_cap=20)


def test_singleton_family_is_a_2_2_selector():
    fam = family_from_sets([(1,), (2,), (3,), (4,)], 4, kind="selector", k=2, m=2)
    assert certify(fam).ok


def test_construct_selector_3_1_6_exhaustive():
    fam = construct_selector(3, 1, 6, seed=2)
    assert fam.certified and fam.verification == "exhaustive"
    # oracle: every 3-subset has at least one isolated element
    for S in combinations(range(1, 7), 3):
        isolated = {
            e
            for e in S
            if any(sorted(set(st) & set(S)) == [e] for st in fam.sets)
        }
        assert len(isolated) >= 1


def test_selector_m_above_k_is_rewritten():
    fam = construct_selector(2, 5, 16, seed=3)
    assert fam.k == 5 and fam.m == 5
    assert fam.certified


def test_selected_and_schedule():
    fam = family_from_sets([(1,), (2,)], 2, c=2)
    sched = RoundSchedule(fam)
    assert selected(sched, 1)
    assert not selected(sched, 2)
    sched.advance()
    assert selected(sched, 2)
    sched.advance()
    with pytest.raises(CursorExhaustedError):
        selected(sched, 1)


def test_selected_matches_membership_everywhere():
    fam = construct_ssf(16, 3, seed=4)
    sched = RoundSchedule(fam)
    for j in range(fam.size):
        members = set(fam.set_members(j))
        for lab in range(1, 17):
            assert selected(sched, lab) == (lab in members)
        sched.advance()


def test_pair_encoding_row_major():
    n = 16
    assert pair_index(2, 3, n) == 2 * n + 3 - n
    seen = set()
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            idx = pair_index(s, t, n)
            assert 1 <= idx <= n * n
            assert pair_unindex(idx, n) == (s, t)
            seen.add(idx)
    assert len(seen) == n * n


def test_pair_space_lift_certifies():
    # an (N^2, c^2)-ssf over pair labels goes through the same oracle
    n, c = 8, 2
    fam = construct_ssf(n * n, c * c, seed=6)
    assert fam.n_labels == 64
    res = certify(fam)
    assert res.ok and res.mode == "exhaustive"


def test_serialization_roundtrip():
    fam = construct_ssf(32, 3, seed=8)
    text = serialize_family(fam)
    again = parse_family(text)
    assert again.sets == fam.sets
    assert again.c == fam.c and again.n_labels == fam.n_labels
    assert again.certified == fam.certified
    assert serialize_family(again) == text


def test_size_tracking_report():
    # informational: constructed sizes against the c^2 lg N shape
    worst = 0.0
    for n, c, seed in [(64, 4, 1), (64, 6, 1), (256, 4, 1)]:
        fam = construct_ssf(n, c, seed=seed)
        k_fit = fam.size / (c * c * math.log2(n))
        worst = max(worst, k_fit)
        print(f"ssf({n},{c}): size={fam.size} K={k_fit:.2f}")
    assert worst < 50  # sanity only; the bound itself is reported, not enforced


def test_lazy_family_membership_consistency():
    fam = construct_ssf(65536, 4, seed=7)
    assert fam.is_lazy
    assert fam.verification == "spot-checked" and not fam.certified
    for label in (1, 17, 65536):
        rounds = set(int(j) for j in fam.rounds_for(label))
        for j in range(min(fam.size, 64)):
            assert fam.contains(j, label) == (j in rounds)


def test_exhaustive_mode_forced_at_small_label_spaces():
    # label spaces up to 64 always get an exact verdict, even when subset
    # enumeration would be astronomically large
    fam = construct_ssf(64, 14, seed=12)
    assert fam.certified and fam.verification == "exhaustive"
    res = certify(fam)
    assert res.mode == "exhaustive" and res.ok


# ---------------------------------------------------------------------------
# Spot-check subsets and the batched isolation kernel.


def test_spot_check_rows_equal_generator_choice(monkeypatch):
    # Generator.choice is the oracle: the bulk sampler must give the rows
    # of successive choice() calls, sorted, whatever NumPy version runs
    scalar_at = []
    scalar = selection._choice_row_scalar

    def counted(stream, n, k):
        scalar_at.append(n)
        return scalar(stream, n, k)

    monkeypatch.setattr(selection, "_choice_row_scalar", counted)
    for n in (64, 256, 1024, 4096, 2**20):
        # choice(n, n) for n > 10000 tail-shuffles and is no spot-check size
        for k in (1, 4, 16, 21) + ((n,) if n <= 4096 else ()):
            count = 2 if k == n else 1500
            # the spot seeds of family seeds 1 and 20; at N = 2^20 the rows
            # of the latter include rejected bounded draws (k = 16 and 21)
            for seed in (derive_seed(1, "spot", 0), derive_seed(20, "spot", 0)):
                gen = np.random.default_rng(seed)
                want = np.sort(
                    [gen.choice(n, size=k, replace=False) for _ in range(count)], axis=1
                )
                for chunk in (7, 4096):
                    got = np.concatenate(
                        list(selection._choice_rows(n, k, seed, count, chunk))
                    )
                    assert np.array_equal(got, want), (n, k, seed, chunk)
    # a rejected bounded draw took the scalar path (only at N = 2^20 here)
    assert 2**20 in scalar_at


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


def reference_spot_check(family, samples=None, sample_seed=0):
    """The spot-check as it ran one choice() call and one big-int scan per
    sample, before batching; the reference for certify's spot-check."""
    gen = np.random.default_rng(derive_seed(family.seed, "spot", sample_seed))
    if family.selection_c is not None:
        k = need = min(family.selection_c, family.n_labels)
        n_samples = samples or (
            SAMPLES_LAZY if family.is_lazy else SAMPLES_MATERIALIZED
        )
    else:
        k, need = family.k, family.m
        n_samples = samples or SAMPLES_MATERIALIZED
    if family.is_lazy:

        def row(e):
            col = selection._membership_column(
                family.seed, e, family.size, family._prob
            )
            bits = np.packbits(col, bitorder="little")
            return int.from_bytes(bits.tobytes(), "little")

    else:
        rows = family.label_rows()
        row = rows.__getitem__
    for _ in range(n_samples):
        combo = sorted(
            int(x) + 1 for x in gen.choice(family.n_labels, size=k, replace=False)
        )
        if sum(_isolated([row(e) for e in combo])) < need:
            return CertifyResult(False, "spot-checked", tuple(combo), n_samples)
    return CertifyResult(True, "spot-checked", None, n_samples)


def random_family(n_labels, size, seed, kind="ssf", **params):
    prob = 1.0 / (params["c"] if kind == "ssf" else params["k"])
    lazy = n_labels > LAZY_LABEL_THRESHOLD
    return SelectionFamily(
        kind=kind,
        n_labels=n_labels,
        seed=seed,
        size=size,
        _matrix=None if lazy else selection._build_matrix(seed, n_labels, size, prob),
        _prob=prob,
        **params,
    )


DIFFERENTIAL_CASES = [
    # (n_labels, size, kind, params, samples); small sizes fail, large pass
    *[
        (n, size, "ssf", {"c": 4}, 3000)
        for n in (256, 1024, 4096)
        for size in (24, 48, 96, 160)
    ],
    (256, 200, "ssf", {"c": 4}, None),  # SAMPLES_MATERIALIZED
    (4096, 400, "ssf", {"c": 9}, 2000),
    (20000, 80, "ssf", {"c": 3}, None),  # lazy: SAMPLES_LAZY
    (20000, 40, "ssf", {"c": 3}, None),
    (256, 30, "selector", {"k": 6, "m": 2}, 3000),
    (256, 8, "selector", {"k": 6, "m": 2}, 3000),
    (256, 12, "selector", {"k": 6, "m": 3}, 3000),
    (256, 40, "selector", {"k": 10, "m": 4}, 3000),
    (256, 16, "selector", {"k": 10, "m": 4}, 3000),
    (256, 100, "selector", {"k": 10, "m": 8}, 3000),
    (256, 40, "selector", {"k": 10, "m": 8}, 3000),
]


def test_batched_spot_check_equals_scalar_reference():
    verdicts = set()
    for i, (n, size, kind, params, samples) in enumerate(DIFFERENTIAL_CASES):
        fam = random_family(n, size, 1000 + i, kind, **params)
        got = certify(fam, enum_cutoff=0, samples=samples)
        assert got == reference_spot_check(fam, samples), (n, size, kind, params)
        verdicts.add((kind, fam.is_lazy, got.ok))
    # both verdicts for materialized ssfs and selectors, and for lazy ssfs
    kinds = [("ssf", False), ("selector", False), ("ssf", True)]
    assert verdicts == {(kind, lz, ok) for kind, lz in kinds for ok in (True, False)}


def _n_isolated(sets, subset):
    return sum(any(set(st) & set(subset) == {e} for st in sets) for e in subset)


def test_batched_enumeration_finds_the_first_violation():
    # subset enumeration runs the same kernel; its witness is the first
    # failing subset in lexicographic order, as a plain scan finds it
    verdicts = set()
    for i, (n, k, m, size) in enumerate(
        [(70, 2, 2, 20), (70, 2, 2, 90), (12, 4, 2, 5), (12, 4, 2, 30)]
    ):
        kind, params = ("ssf", {"c": k}) if k == m else ("selector", {"k": k, "m": m})
        fam = random_family(n, size, 50 + i, kind, **params)
        sets, subsets = fam.sets, combinations(range(1, n + 1), k)
        first = next((S for S in subsets if _n_isolated(sets, S) < m), None)
        res = certify(fam, exact_label_cutoff=0)
        assert res == CertifyResult(first is None, "exhaustive", first)
        verdicts.add((kind, res.ok))
    assert len(verdicts) == 4


@pytest.mark.parametrize(
    "n_labels, c, tag, size",
    [(256, 4, "ssf", 128), (1024, 4, "ssf", 160), (64 * 64, 16, "pair", 3072)],
)
def test_spot_checked_family_sizes_are_pinned(n_labels, c, tag, size):
    # the base ssfs of N = 256 and 1024 and the pair ssf of N = 64, at
    # family seed 1, as `protocol.Families` derives their seeds
    fam = construct_ssf(n_labels, c, derive_seed(1, tag, n_labels, c))
    assert (fam.size, fam.verification, fam.certified) == (size, "spot-checked", False)


@pytest.mark.xfail(
    strict=True,
    reason="the spot-check accepts base ssfs that are not strongly selective; "
    "families certified by construction (ROADMAP item 2) mend this",
)
def test_spot_checked_base_ssf_isolates_label_6_from_20_88_221():
    rows = construct_ssf(256, 4, derive_seed(1, "ssf", 256, 4)).label_rows()
    assert rows[6] & ~(rows[20] | rows[88] | rows[221])
