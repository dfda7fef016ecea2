import csv
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import run_game_grid, write_grid_csv

import neuperm.sweep as sweep
from neuperm.analysis import (
    GameResult,
    _play_game,
    d_from_site_sizes,
    effective_protected_bits,
    fixed_point_prob,
    simulate_extraction_game,
    success_bound,
    success_bound_ecc,
    success_bound_no_ecc,
)
from neuperm.errors import BoundInapplicableError, IneffectiveRegimeError
from neuperm.rng import SeededRng

# High-precision reference values recomputed by scripts/oracle_goldens.py.
GOLDEN_NO_ECC = 4.317124741065825e-05  # d=0.99, L=1000
GOLDEN_ECC_A = 1.2664165549094177e-14  # d=0.5, delta=0.1, L=100
GOLDEN_ECC_B = 4.2913405655982924e-09  # d=0.1, delta=1/3, L=30


def test_bound_goldens():
    assert math.isclose(success_bound_no_ecc(0.99, 1000), GOLDEN_NO_ECC, rel_tol=1e-12)
    assert math.isclose(success_bound_ecc(0.5, 0.1, 100), GOLDEN_ECC_A, rel_tol=1e-12)
    assert math.isclose(success_bound_ecc(0.1, 1 / 3, 30), GOLDEN_ECC_B, rel_tol=1e-12)


def test_no_ecc_edge_cases():
    assert success_bound_no_ecc(1.0, 50) == 1.0
    assert success_bound_no_ecc(0.5, 1) == 0.5
    assert success_bound_no_ecc(0.5, 100_000) == 0.0  # clean underflow
    with pytest.raises(ValueError):
        success_bound_no_ecc(0.0, 10)
    with pytest.raises(ValueError):
        success_bound_no_ecc(0.5, 0)


def test_ecc_bound_structure():
    d, delta, L = 0.25, 0.1, 60
    gap = (1 - delta) - d
    want = d**L + math.exp(-2 * gap * gap * L)
    assert math.isclose(success_bound_ecc(d, delta, L), want, rel_tol=1e-12)
    # clamped to 1 when the exponential term is weak
    assert success_bound_ecc(0.5, 0.49, 1) == 1.0


def test_ecc_bound_inapplicable():
    with pytest.raises(BoundInapplicableError):
        success_bound_ecc(0.5, 0.6, 100)
    with pytest.raises(BoundInapplicableError):
        success_bound_ecc(0.5, 0.5, 100)  # d == 1 - delta exactly
    with pytest.raises(ValueError):
        success_bound_ecc(0.5, 1.0, 100)


def test_success_bound_dispatch():
    assert success_bound(0.9, 0.0, 10) == success_bound_no_ecc(0.9, 10)
    assert success_bound(0.1, 0.25, 10) == success_bound_ecc(0.1, 0.25, 10)
    with pytest.raises(BoundInapplicableError):
        success_bound(0.5, 0.5, 10)


def test_success_bound_validation():
    with pytest.raises(ValueError):
        success_bound(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        success_bound(1.5, 0.0, 10)
    with pytest.raises(ValueError):
        success_bound(0.5, 0.0, 0)
    with pytest.raises(ValueError):
        success_bound(0.5, 1.0, 10)


def test_fixed_point_prob_and_site_sizes():
    assert fixed_point_prob(1) == 1.0
    assert fixed_point_prob(4) == 0.25
    assert d_from_site_sizes([512, 4, 100]) == 0.25  # smallest site dominates
    with pytest.raises(ValueError):
        fixed_point_prob(0)
    with pytest.raises(ValueError):
        d_from_site_sizes([])


def test_effective_protected_bits():
    assert effective_protected_bits(1000, 1200, 900) == 700
    assert effective_protected_bits(10, 100, 100) == 10  # full coverage takes no discount
    with pytest.raises(IneffectiveRegimeError, match="NeuPerm-ineffective regime"):
        effective_protected_bits(100, 1200, 900)
    with pytest.raises(IneffectiveRegimeError):
        effective_protected_bits(300, 1200, 900)  # exactly absorbed -> still ineffective
    with pytest.raises(ValueError):
        effective_protected_bits(10, 100, 200)
    with pytest.raises(ValueError):
        effective_protected_bits(0, 100, 100)


# ------------------------------------------------------------ simulation

def _exact_rate(n: int, L: int, delta: float) -> float:
    """Independent oracle: binomial tail with exact rational arithmetic."""
    budget = math.floor(delta * L)
    p_err = Fraction(n - 1, n)
    return float(
        sum(
            math.comb(L, k) * p_err**k * (1 - p_err) ** (L - k)
            for k in range(budget + 1)
        )
    )


def test_game_matches_exact_binomial_n2():
    g = simulate_extraction_game(n=2, L=30, delta=1 / 3, trials=100_000, seed=99)
    exact = _exact_rate(2, 30, 1 / 3)
    sigma = math.sqrt(exact * (1 - exact) / g.trials)
    assert abs(g.rate - exact) < 4 * sigma
    assert g.rate <= g.bound


def test_game_matches_exact_binomial_n3():
    g = simulate_extraction_game(n=3, L=30, delta=1 / 3, trials=400_000, seed=99)
    exact = _exact_rate(3, 30, 1 / 3)
    sigma = math.sqrt(exact * (1 - exact) / g.trials)
    assert abs(g.rate - exact) < 4 * sigma + 1e-9
    assert g.rate <= g.bound


def test_game_single_bit_cell():
    g = simulate_extraction_game(n=2, L=1, delta=0.0, trials=200_000, seed=8)
    assert abs(g.rate - 0.5) < 0.005
    assert g.bound == 0.5


def test_game_n1_always_succeeds():
    g = simulate_extraction_game(n=1, L=10, delta=0.0, trials=1000, seed=1)
    assert g.successes == g.trials and g.rate == 1.0 and g.bound == 1.0
    with pytest.raises(BoundInapplicableError):
        simulate_extraction_game(n=1, L=10, delta=0.5, trials=10, seed=1)


def test_game_power_of_two_sites():
    # the no-rejection fast path: every 64-bit word maps uniformly
    g = simulate_extraction_game(n=4, L=16, delta=0.0, trials=50_000, seed=3)
    exact = 0.25**16
    assert g.rate <= g.bound + 3 * math.sqrt(g.bound / g.trials) + 1e-9
    assert math.isclose(g.bound, exact, rel_tol=1e-9)


def test_game_validation():
    with pytest.raises(ValueError):
        simulate_extraction_game(n=0, L=10, delta=0.0, trials=10, seed=1)
    with pytest.raises(ValueError):
        simulate_extraction_game(n=2, L=0, delta=0.0, trials=10, seed=1)
    with pytest.raises(ValueError):
        simulate_extraction_game(n=2, L=10, delta=0.0, trials=0, seed=1)


def test_game_site_size_limit_is_2_64():
    # a game word has 64 bits: n = 2^64 takes every word as it is, and above
    # that no word could be reduced uniformly
    g = simulate_extraction_game(n=2**64, L=5, delta=0.0, trials=1000, seed=1)
    assert g.successes == 0 and g.trials == 1000
    with pytest.raises(ValueError, match=r"must be <= 2\^64, got 18446744073709551617$"):
        simulate_extraction_game(n=2**64 + 1, L=5, delta=0.0, trials=10, seed=1)
    with pytest.raises(ValueError, match=r"got 10{17}\.\.\.0{19}$"):
        simulate_extraction_game(n=10**100, L=5, delta=0.0, trials=10, seed=1)


def test_game_deterministic():
    a = simulate_extraction_game(n=2, L=20, delta=1 / 3, trials=20_000, seed=5)
    b = simulate_extraction_game(n=2, L=20, delta=1 / 3, trials=20_000, seed=5)
    assert a.successes == b.successes


@pytest.mark.parametrize(
    "n, L, delta, trials, seed, successes",
    [
        (2, 10, 0.3, 200_000, 1, 34234),
        (3, 12, 1 / 3, 100_000, 2, 1868),
        (5, 3, 0.34, 300_000, 3, 31073),
        (512, 1000, 1 / 7, 50_000, 4, 0),
        (7, 70_000, 0.8, 3, 5, 0),
        (3, 200_000, 0.6665, 40, 1, 15),
    ],
)
def test_game_success_counts_frozen(n, L, delta, trials, seed, successes):
    # frozen when a batch held 2^23 words; at 2^16 words these runs span
    # many batches, and L = 70000 plays one trial per batch. The L = 200000
    # count was frozen from whole-trial draws, so it checks that drawing a
    # long trial in 2^16-word chunks changes no count
    g = simulate_extraction_game(n=n, L=L, delta=delta, trials=trials, seed=seed)
    assert g.successes == successes


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "n, L, delta, trials, seed, successes",
    [
        (512, 1, 0.0, 300_000, 11, 617),
        (512, 2, 0.5, 300_000, 12, 1170),
        (512, 1000, 1 / 7, 50_000, 1, 0),
        (3, 5, 0.4, 300_000, 16, 62690),
        (3, 30, 1 / 3, 100_000, 13, 20),
        (6, 7, 0.5, 250_000, 18, 4511),
        (3, 200_000, 0.6665, 1, 1, 1),
        (3, 70_000, 0.6665, 9, 17, 2),
        (2**63 + 1, 10, 0.5, 20_000, 14, 0),
        (2**63 + 1, 70_000, 0.5, 3, 19, 0),
    ],
)
def test_game_counts_at_any_worker_count(monkeypatch, workers, n, L, delta, trials, seed,
                                         successes):
    # counts frozen from the serial loop over the batches. n = 2**63 + 1
    # rejects about half of all words, so every batch is drawn again in order;
    # the L = 200000 and 70000 trials span several 2^16-word chunks
    monkeypatch.setattr(sweep, "workers", lambda: workers)
    g = simulate_extraction_game(n=n, L=L, delta=delta, trials=trials, seed=seed)
    assert g.successes == successes


def _serial_game(n, L, budget, trials, seed, limit):
    """The game as one thread plays it: 2^16-word batches, each rejected word
    replaced from the stream right after its batch's words."""
    rng = SeededRng(seed)
    draw = 1 << 16
    batch = max(1, min(trials, draw // L))
    successes = done = 0
    while done < trials:
        t = min(batch, trials - done)
        errors = np.zeros(t, dtype=np.int64)
        for start in range(0, L, draw):
            width = min(draw, L - start)
            words = rng.next_block(t * width)
            bad = np.flatnonzero(words > limit)
            while bad.size:
                words[bad] = rng.next_block(bad.size)
                bad = bad[words[bad] > limit]
            errors += ((words % np.uint64(n)).reshape(t, width) != 0).sum(axis=1)
        successes += int(np.count_nonzero(errors <= budget))
        done += t
    return successes


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("limit", [2**63 - 1, 2**64 - 2**46 - 1])
@pytest.mark.parametrize("L, budget, trials", [(5, 2, 200_000), (1000, 667, 300),
                                               (70_000, 46_667, 4), (65536, 43791, 4),
                                               (65537, 43792, 4), (131073, 87482, 4),
                                               (32768, 21946, 5)])
def test_game_redraws_rejected_batches_in_order(monkeypatch, workers, limit, L, budget,
                                                trials):
    # fixed points as common as at n = 3, with half of all words rejected, or
    # 1 in 2^18, so that some batches hold none: every batch after the first
    # rejection is drawn again at its true offset
    monkeypatch.setattr(sweep, "workers", lambda: workers)
    limit = np.uint64(limit)
    want = _serial_game(3, L, budget, trials, 21, limit)
    assert want > 0
    assert _play_game(3, L, budget, trials, 21, limit) == want


def test_game_counts_under_fast_thread_switching(monkeypatch):
    # more threads than CPUs, switching as often as the interpreter allows
    monkeypatch.setattr(sweep, "workers", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert simulate_extraction_game(3, 5, 0.4, 300_000, 16).successes == 62690
        limit = np.uint64(2**64 - 2**46 - 1)
        assert _play_game(3, 5, 2, 200_000, 21, limit) == _serial_game(3, 5, 2, 200_000, 21, limit)
    finally:
        sys.setswitchinterval(interval)


def test_game_result_rate():
    r = GameResult(n=2, L=10, delta=0.0, trials=100, successes=25, bound=1.0)
    assert r.rate == 0.25


def test_grid_and_csv(tmp_path):
    rows = run_game_grid([10, 100], [30, 100], delta=1 / 3, trials=2000, seed=2026)
    assert len(rows) == 4
    for r in rows:
        sigma = math.sqrt(r.bound * (1 - r.bound) / r.trials)
        assert r.rate <= r.bound + 3 * sigma + 1e-12
    path = tmp_path / "grid.csv"
    write_grid_csv(path, rows)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == ["d", "delta", "L", "bound", "empirical", "trials"]
        body = list(reader)
    assert len(body) == 4
    assert body[0][0] == "0.1" and body[0][2] == "30"


@given(
    st.floats(0.01, 0.99),
    st.integers(1, 500),
)
@settings(max_examples=100)
def test_no_ecc_bound_matches_pow(d, L):
    assert math.isclose(success_bound_no_ecc(d, L), d**L, rel_tol=1e-9, abs_tol=1e-300)


@given(
    st.floats(0.01, 0.5),
    st.floats(0.0, 0.45),
    st.integers(1, 500),
)
@settings(max_examples=100)
def test_ecc_bound_dominates_no_ecc(d, delta, L):
    # the ecc bound only adds a nonnegative Hoeffding term
    assert success_bound_ecc(d, delta, L) >= min(1.0, success_bound_no_ecc(d, L))


def test_monotonicity_in_L():
    bounds = [success_bound_ecc(0.1, 1 / 3, L) for L in (10, 30, 100, 300)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
