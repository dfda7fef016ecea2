#!/usr/bin/env python3
"""Pick a spread-spectrum chip amplitude for the evaluation host.

Sweeps gamma over a log grid on the standard 2^20-parameter host and reports
the despread SNR plus exact-extraction success, then bisects for the smallest
gamma that still decodes exactly. The committed evaluation runs use
gamma = 0.009: comfortably above the decode threshold (the predicted
post-despread noise floor for K coded bits is sqrt((1 + gamma^2 (K-1)) / N),
giving a ~8x amplitude margin) while staying more than two orders of
magnitude below the unit weight scale.

Exits 1 when no swept gamma decodes exactly, so a run at the committed gamma
is a check.
"""

import argparse
import math
import sys

from neuperm.fixtures import ss_host
from neuperm.rng import SeededRng
from neuperm.stego import AttackPlan, parse_ecc, ss_embed, ss_extract

import numpy as np


def attempt(host, payload, gamma, ecc, seed):
    plan = AttackPlan.for_payload("ss", payload, host, seed=seed, ecc=ecc, param=gamma)
    carrier = ss_embed(host, payload, plan)
    got, snr_db = ss_extract(carrier, plan)
    return got == payload, snr_db, plan.coded_bits


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--payload-bytes", type=int, default=128)
    ap.add_argument("--ecc", default="repetition:3")
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--sweep", default="0.0005,0.001,0.002,0.004,0.009,0.02")
    args = ap.parse_args()
    if args.payload_bytes < 1:
        ap.error("--payload-bytes must be >= 1")

    host, _, _ = ss_host()
    words = SeededRng(6).next_block(-(-args.payload_bytes // 8))
    payload = bytes(words.view(np.uint8))[: args.payload_bytes]
    ecc = parse_ecc(args.ecc)

    print(f"host: {host.param_count} params | payload {len(payload)}B | ecc {ecc.spec}")
    coded = ecc.coded_len(8 * len(payload))
    floor = math.sqrt((1.0 + 0.0) / host.param_count)  # gamma-free part of the floor
    print(f"coded bits: {coded} | base noise floor {floor:.2e}")

    lo, hi = None, None
    for gamma in (float(g) for g in args.sweep.split(",")):
        ok, snr, _ = attempt(host, payload, gamma, ecc, args.seed)
        print(f"gamma={gamma:<8g} snr={snr:+7.2f} dB exact={ok}")
        if ok and hi is None:
            hi = gamma
        if not ok:
            lo = gamma

    if lo is not None and hi is not None and lo < hi:
        for _ in range(8):
            mid = math.sqrt(lo * hi)
            ok, snr, _ = attempt(host, payload, mid, ecc, args.seed)
            lo, hi = (lo, mid) if ok else (mid, hi)
        print(f"decode threshold ~ gamma={hi:.5f}")
    if hi is None:
        print("no swept gamma decoded exactly", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ValueError as e:  # a malformed --sweep, or a payload or gamma the plan refuses
        sys.exit(f"error: {e}")
