"""Fixed reference work that gauges the host's speed during a benchmark run.

Row-reduces a fixed 22x44 matrix of small rationals with ``fractions``, the
same kind of work the package's rank engine does, in a fresh interpreter
started with ``-I``, so nothing of the repository is imported.  run.py times
it between ops; since it never changes, its time moves only with the host.
"""

from fractions import Fraction

N = 22


def main() -> None:
    m = [[Fraction((i * 7 + j * 13) % 17 - 8, (i + 2 * j) % 5 + 1) for j in range(2 * N)]
         for i in range(N)]
    rank = 0
    for c in range(2 * N):
        pivot = next((i for i in range(rank, N) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(N):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    if rank != N:
        raise SystemExit(f"reference: rank {rank}, expected {N}")


if __name__ == "__main__":
    main()
