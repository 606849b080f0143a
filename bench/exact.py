"""Reference arithmetic the benchmark checks program output against.

Plain lists of ``Fraction`` rows, written without any code from ``symplaw``
so that a check never passes through the layer it is checking.
"""

from __future__ import annotations

from fractions import Fraction


def mat_mul(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def mat_add_scaled(acc: list, m: list, c: Fraction) -> list:
    return [[x + c * y for x, y in zip(r1, r2)] for r1, r2 in zip(acc, m)]


def identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(n: int) -> list:
    return [[Fraction(0)] * n for _ in range(n)]


def det(m: list) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    a = [list(row) for row in m]
    n = len(a)
    out = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            out = -out
        pv = a[col][col]
        out *= pv
        for r in range(col + 1, n):
            f = a[r][col] / pv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


def sp_transpose(m: list) -> list:
    """M^j = J M^T J^(-1) for J = [[0, I], [-I, 0]]: [[A, B], [C, D]] -> [[D^T, -B^T], [-C^T, A^T]]."""
    d = len(m) // 2
    out = zeros(2 * d)
    for i in range(d):
        for k in range(d):
            out[i][k] = m[d + k][d + i]
            out[i][d + k] = -m[k][d + i]
            out[d + i][k] = -m[d + k][i]
            out[d + i][d + k] = m[k][i]
    return out


def sigmas(m: list) -> list:
    """[s_0..s_n] with det(tI - M) = sum (-1)^i s_i t^(n-i), from power traces by Newton's identities."""
    n = len(m)
    traces = []
    power = m
    for k in range(n):
        if k:
            power = mat_mul(power, m)
        traces.append(sum((power[i][i] for i in range(n)), Fraction(0)))
    out = [Fraction(1)]
    for i in range(1, n + 1):
        acc = Fraction(0)
        for k in range(1, i + 1):
            term = out[i - k] * traces[k - 1]
            acc += term if k % 2 else -term
        out.append(acc / i)
    return out
