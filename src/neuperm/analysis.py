"""Security bounds for payload survival, plus a Monte-Carlo check.

Threat model: an extractor reads payload bits back from fixed parameter
positions. A uniformly random permutation of a site with n rows leaves any
given row in place with probability 1/n, so a bit stored in that row is read
correctly only at the site's fixed points (a displaced parameter lands the
extractor on an unrelated value, which we count as a read error outright —
value collisions that happen to decode correctly are ignored, making the
closed forms upper bounds for this placement game).

With d = max_l 1/n_l over the permuted sites and L coded bits forced through
them:

* no ECC:  P(success) <= d^L
* ECC correcting a delta fraction:  P(success) <= d^L + exp(-2((1-delta)-d)^2 L),
  valid only when d < 1 - delta.

Both forms assume the bits ride *distinct* sites, so their survivals are
independent. Bits sharing one permutation survive together more often than
independently (all n rows of a site survive with probability 1/n!, far above
n^-n), so an embedder who concentrates bits beats d^L at small n; at
realistic site sizes the distinction is far below any observable rate.
`simulate_extraction_game` plays the independent-sites game so the closed
forms can be checked empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundInapplicableError, IneffectiveRegimeError
from .rng import SeededRng


def fixed_point_prob(n: int) -> float:
    """Chance a given row survives a uniform permutation of n rows."""
    if n < 1:
        raise ValueError("site size must be >= 1")
    return 1.0 / n


def d_from_site_sizes(sizes) -> float:
    """Worst per-bit survival probability over the permuted sites."""
    sizes = list(sizes)
    if not sizes:
        raise ValueError("need at least one site size")
    return max(fixed_point_prob(n) for n in sizes)


def effective_protected_bits(l_prime: int, l_total: int, l_np: int) -> int:
    """Coded bits the permutation actually defends.

    Of `l_total` parameters, only `l_np` are ever moved; an embedder can park
    up to the remainder in never-permuted parameters where they survive
    verbatim. Those free slots are subtracted from the attacker's `l_prime`
    coded bits before any bound applies.
    """
    if l_total < l_np:
        raise ValueError("covered parameter count exceeds the total")
    if l_prime < 1:
        raise ValueError("coded bit count must be >= 1")
    unprotected = l_total - l_np
    l_eff = l_prime - unprotected
    if l_eff <= 0:
        raise IneffectiveRegimeError(
            f"NeuPerm-ineffective regime: {unprotected} uncovered parameters "
            f"can absorb the entire {l_prime}-bit payload"
        )
    return l_eff


def success_bound_no_ecc(d: float, L: int) -> float:
    """d^L, evaluated in log space so huge L underflows cleanly to 0."""
    if not 0.0 < d <= 1.0:
        raise ValueError("d must lie in (0, 1]")
    if L < 1:
        raise ValueError("L must be >= 1")
    return math.exp(L * math.log(d)) if d < 1.0 else 1.0


def success_bound_ecc(d: float, delta: float, L: int) -> float:
    """d^L + exp(-2((1-delta)-d)^2 L), clamped to 1.

    Only meaningful when the per-bit survival rate d sits below the
    decoder's correction budget 1-delta; otherwise the Hoeffding term has
    nothing to concentrate against and we refuse rather than mislead.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    if not 0.0 < d <= 1.0:
        raise ValueError("d must lie in (0, 1]")
    if d >= 1.0 - delta:
        raise BoundInapplicableError(
            f"bound needs d < 1 - delta, got d={d} vs 1-delta={1.0 - delta}"
        )
    gap = (1.0 - delta) - d
    return min(1.0, success_bound_no_ecc(d, L) + math.exp(-2.0 * gap * gap * L))


def success_bound(d: float, delta: float, L: int) -> float:
    """The bound that fits the decoder: d^L without ECC (delta 0), else the ECC form."""
    if delta == 0.0:
        return success_bound_no_ecc(d, L)
    return success_bound_ecc(d, delta, L)


# ------------------------------------------------------------ simulation

@dataclass(frozen=True)
class GameResult:
    n: int
    L: int
    delta: float
    trials: int
    successes: int
    bound: float

    @property
    def rate(self) -> float:
        return self.successes / self.trials


def simulate_extraction_game(
    n: int,
    L: int,
    delta: float,
    trials: int,
    seed: int,
) -> GameResult:
    """Play the independent-sites placement game `trials` times.

    Each of the L coded bits sits in one row of its own site of n rows; the
    sanitizer permutes every site uniformly and independently, and a bit is
    read correctly only if its row is a fixed point. Under a uniform
    permutation the image of a given row is itself uniform over the n rows,
    so each bit's survival is drawn directly as a bounded-rejection uniform
    word hitting the stored row — exact, without materializing permutations.
    A trial succeeds when read errors fit the decoder budget floor(delta*L).

    Words are drawn at most 2^16 (512 KiB) at a time, which stay in cache:
    whole trials are batched up to that many words, and a longer trial is
    drawn in chunks of 2^16 whose displaced counts are summed, so memory
    does not grow with L. The draws read one contiguous word stream, so the
    count does not depend on the draw size unless a word is rejected: a
    rejected word is replaced from the stream after its draw. No word is
    ever rejected when n is a power of two, and for other n each word is
    rejected with probability below n/2^64.
    """
    if n < 1 or L < 1 or trials < 1:
        raise ValueError("n, L and trials must all be >= 1")
    bound = success_bound(1.0 / n, delta, L)
    rng = SeededRng(seed)
    budget = math.floor(delta * L)
    span = ((1 << 64) // n) * n  # == 2**64 when n is a power of two: no rejection needed
    limit = np.uint64(span - 1) if span < (1 << 64) else None
    successes = 0
    draw = 1 << 16
    batch = max(1, min(trials, draw // L))
    done = 0
    while done < trials:
        t = min(batch, trials - done)
        errors = np.zeros(t, dtype=np.int64)
        for start in range(0, L, draw):  # more than one chunk only when t == 1
            width = min(draw, L - start)
            words = rng.next_block(t * width)
            if limit is not None:
                bad = np.flatnonzero(words > limit)
                while bad.size:  # astronomically rare for any n that fits in memory
                    words[bad] = rng.next_block(bad.size)
                    bad = bad[words[bad] > limit]
            errors += ((words % np.uint64(n)).reshape(t, width) != 0).sum(axis=1)
        successes += int(np.count_nonzero(errors <= budget))
        done += t
    return GameResult(n=n, L=L, delta=delta, trials=trials, successes=successes, bound=bound)
