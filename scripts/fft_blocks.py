"""Row-pass crossover behind `sqg.ROW_PASS_BYTES`: one batched `irfft` over a
stack of half spectra against one call per field.

    python scripts/fft_blocks.py [--fields 4] [--repeats 200]

Prints a markdown table of 25th-percentile times (ms, `perf_counter`).  The
budget should keep N where the batched call wins in one block.
"""

import argparse
import time

import numpy as np
import scipy.fft as sfft


def q25_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.percentile(times, 25))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--fields", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=200)
    args = ap.parse_args()
    rng = np.random.default_rng(0)
    print("| N | field bytes | batched ms | per field ms |\n| --- | --- | --- | --- |")
    for N in (64, 128, 256, 512):
        half = rng.standard_normal((args.fields, N, N // 2 + 1)) + 0j
        phys = np.empty((args.fields, N, N))

        def batched():
            phys[:] = sfft.irfft(half, axis=-1, norm="forward")

        def per_field():
            for i in range(args.fields):
                phys[i] = sfft.irfft(half[i], axis=-1, norm="forward")

        print(f"| {N} | {phys[0].nbytes} | {q25_ms(batched, args.repeats):.3f} "
              f"| {q25_ms(per_field, args.repeats):.3f} |")


if __name__ == "__main__":
    main()
