"""The reference request that the benchmark's times are scaled by.

A fixed program shaped like a taumod request: a fresh interpreter that
imports numpy, builds the log table of F_{3^6} and runs 80000 table
multiplications in pure Python. It never imports taumod, so no change to
the program under test can move its time; the machine's speed does.
"""

import numpy  # noqa: F401  (every taumod request imports numpy)

P, N, STEPS = 3, 6, 80000


def main():
    order = P**N - 1
    exp, log = [], {}
    cur = (1,) + (0,) * (N - 1)
    for k in range(order):
        exp.append(cur)
        log[cur] = k
        # multiply by X modulo X^6 - X - 2
        top = cur[-1]
        cur = ((2 * top) % P, (cur[0] + top) % P) + cur[1:-1]
    acc = 0
    for i in range(STEPS):
        a, b = exp[(7 * i) % order], exp[(13 * i) % order]
        acc += log.get(tuple((x + y) % P for x, y in zip(a, b)), 0)
    return acc


if __name__ == "__main__":
    main()
