"""Print the coefficient tables of ``fplab.special`` as the Python literals
checked in there, from mpmath at 40 digits:

    python tests/make_special_tables.py

Each function has a table of PIECES rows of DEGREE + 1 coefficients and a
tail of TAIL_DEGREE + 1.  Row k fits the function on the k-th of PIECES
equal pieces of [0, SPLIT] as a polynomial in y in [0, 1],
x = (k + y) SPLIT / PIECES; the tail fits x f(x) / SPLIT on [SPLIT, inf) as a
polynomial in v = SPLIT^2 / x^2 in (0, 1].  Each fit is the Chebyshev
interpolant at the first-kind nodes, converted to powers of its variable
with every coefficient rounded once to a double; ``fplab.special``
evaluates it by Horner's rule.

The pieces hold erfcx(x), and D(x)/x for Dawson's function D, so that D
keeps its relative accuracy at the smallest x, where D(x) ~ x.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 40
SPLIT = 8
PIECES = 32
DEGREE = 10
TAIL_DEGREE = 8


def erfcx(x):
    return mp.exp(x * x) * mp.erfc(x)


def dawson(x):
    return mp.sqrt(mp.pi) / 2 * mp.exp(-x * x) * mp.erfi(x)


# name -> what the pieces fit, and the function whose x f(x) / SPLIT the tail fits
FUNCTIONS = {"ERFCX": (erfcx, erfcx), "DAWSON": (lambda x: dawson(x) / x, dawson)}


def _power_coefficients(f, degree: int) -> list:
    """The Chebyshev interpolant of f on [0, 1] at degree + 1 first-kind
    nodes, as the doubles nearest the coefficients of y^0 .. y^degree."""
    n = degree + 1
    angles = [mp.pi * (m + mp.mpf(0.5)) / n for m in range(n)]
    values = [f((1 + mp.cos(a)) / 2) for a in angles]
    cheb = [2 * mp.fsum(v * mp.cos(j * a) for a, v in zip(angles, values)) / n for j in range(n)]
    cheb[0] /= 2
    # T_j(2y - 1) in powers of y: T_0 = 1, T_1 = 2y - 1, T_{j+1} = 2 (2y - 1) T_j - T_{j-1}
    power = [mp.mpf(0)] * n
    t_prev, t_cur = [mp.mpf(1)], [mp.mpf(-1), mp.mpf(2)]
    for c in cheb:
        for i, a in enumerate(t_prev):  # t_prev is T_j
            power[i] += c * a
        t_next = [-2 * a for a in t_cur] + [mp.mpf(0)]
        for i, a in enumerate(t_cur):
            t_next[i + 1] += 4 * a
        for i, a in enumerate(t_prev):
            t_next[i] -= a
        t_prev, t_cur = t_cur, t_next
    return [float(a) for a in power]


def row(name: str, k: int) -> list:
    """Row k of table ``name``."""
    piece_fn = FUNCTIONS[name][0]
    with mp.workdps(DIGITS):
        return _power_coefficients(lambda y: piece_fn((k + y) * mp.mpf(SPLIT) / PIECES), DEGREE)


def tail(name: str) -> list:
    """The tail of ``name``: x f(x) / SPLIT as a polynomial in v = SPLIT^2 / x^2."""
    tail_fn = FUNCTIONS[name][1]
    with mp.workdps(DIGITS):
        def in_v(v):
            x = SPLIT / mp.sqrt(v)
            return x / SPLIT * tail_fn(x)
        return _power_coefficients(in_v, TAIL_DEGREE)


def _literal(coefficients: list, indent: str) -> list:
    """A list of floats as source lines of at most 100 characters."""
    lines, line = [], indent + "["
    for i, a in enumerate(coefficients):
        word = repr(a) + ("," if i < len(coefficients) - 1 else "]")
        if len(line) + len(word) > 99:
            lines.append(line.rstrip())
            line = indent + " "
        line += word + " "
    return lines + [line.rstrip()]


def main() -> None:
    for name in FUNCTIONS:
        print(f"_{name} = np.array([")
        for k in range(PIECES):
            print("\n".join(_literal(row(name, k), "    ")) + ",")
        print("])")
        print(f"_{name}_TAIL = np.array(")
        print("\n".join(_literal(tail(name), "    ")) + ")")


if __name__ == "__main__":
    main()
