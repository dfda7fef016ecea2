#!/usr/bin/env python3
"""Standalone oracles for the frozen test constants.

Deliberately imports nothing from the package: every value printed here is
recomputed from first principles so the test constants have an independent
origin. Run it whenever a golden constant looks suspicious.
"""

import hashlib
import json
import math
import struct

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix(z):
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def splitmix_stream(seed, count):
    out, state = [], seed & MASK
    for _ in range(count):
        state = (state + GOLDEN) & MASK
        out.append(mix(state))
    return out


def bounded(state, n):
    limit = ((1 << 64) // n) * n
    while True:
        state = (state + GOLDEN) & MASK
        x = mix(state)
        if x < limit:
            return state, x % n


def fisher_yates(n, seed):
    a = list(range(n))
    state = seed & MASK
    for i in range(n - 1, 0, -1):
        state, j = bounded(state, i + 1)
        a[i], a[j] = a[j], a[i]
    return a


def sample_positions(total, count, seed):
    """Partial Fisher-Yates over a virtual identity array, one bounded draw per slot."""
    swaps, out, state = {}, [], seed & MASK
    for i in range(count):
        state, r = bounded(state, total - i)
        j = i + r
        out.append(swaps.get(j, j))
        swaps[j] = swaps.get(i, i)
    return out


def golden_archive():
    """Single float32 tensor 'w' = [1.0, 2.0] in canonical container form."""
    header = json.dumps(
        {"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}},
        separators=(",", ":"),
        sort_keys=True,
    ).encode()
    body = struct.pack("<ff", 1.0, 2.0)
    return struct.pack("<Q", len(header)) + header + body


def bounds():
    """The three closed-form security bounds, evaluated at 60 digits."""
    from mpmath import mp, mpf, exp, log

    mp.dps = 60
    d, L = mpf("0.99"), 1000
    no_ecc = float(exp(L * log(d)))
    d, delta, L = mpf("0.5"), mpf("0.1"), 100
    ecc_a = float(d**L + exp(-2 * ((1 - delta) - d) ** 2 * L))
    d, delta, L = mpf(1) / 10, mpf(1) / 3, 30
    ecc_b = float(d**L + exp(-2 * ((1 - delta) - d) ** 2 * L))
    return {"no-ecc d=0.99 L=1000": no_ecc, "ecc d=0.5 delta=0.1 L=100": ecc_a,
            "ecc d=0.1 delta=1/3 L=30": ecc_b}


def main():
    print("splitmix64 seed=0 first 5:", [hex(v) for v in splitmix_stream(0, 5)])
    print("splitmix64 seed=42 first 3:", [hex(v) for v in splitmix_stream(42, 3)])
    print("fisher_yates(4, seed=42):", fisher_yates(4, 42))
    print("fisher_yates(8, seed=7):", fisher_yates(8, 7))
    print("fisher_yates(1, seed=9):", fisher_yates(1, 9))

    positions = sample_positions(2**20, 98304, 7)
    blob = b"".join(struct.pack("<q", v) for v in positions)
    print("sample_positions(2^20, 98304, seed=7) sha256:", hashlib.sha256(blob).hexdigest())

    blob = golden_archive()
    print("golden archive len:", len(blob))
    print("golden archive hex:", blob.hex())

    # closed-form security bounds at high precision
    for label, value in bounds().items():
        print(f"{label}:", value)

    # expected despread noise floor for the acceptance fixture
    N, K, gamma = 2**20, 3072, 0.009
    floor = math.sqrt((1.0 + gamma**2 * (K - 1)) / N)
    print("fixture noise floor sigma:", floor, "gamma/sigma:", gamma / floor)


if __name__ == "__main__":
    main()
