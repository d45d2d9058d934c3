"""Exact integer arithmetic in the ring Z[x]/(x^n + 1).

Polynomials are plain Python lists of ints (index = degree), length n with
n a power of two. Coefficients are arbitrary precision: NTRUSolve's tower
descent produces intermediate values thousands of bits wide, which is why
this module does not use numpy. :func:`mul` (field norms, lifts, Babai
reduction) is one big-int product by Kronecker substitution.
"""

from __future__ import annotations

import struct

__all__ = [
    "check_ring",
    "add",
    "sub",
    "neg",
    "mul",
    "adjoint",
    "galois_conjugate",
    "field_norm",
    "lift",
    "sqnorm",
    "split",
    "merge",
    "mod_q",
    "mul_mod_q",
    "inverse_mod_q",
    "constant",
]


def check_ring(f: list[int]) -> int:
    """Validate that ``f`` lives in a power-of-two ring; return n."""
    n = len(f)
    if n < 1 or n & (n - 1):
        raise ValueError(f"ring degree must be a power of two, got {n}")
    return n


def constant(c: int, n: int) -> list[int]:
    """The constant polynomial c in a ring of degree n."""
    out = [0] * n
    out[0] = c
    return out


def add(f: list[int], g: list[int]) -> list[int]:
    if len(f) != len(g):
        raise ValueError(f"degree mismatch: {len(f)} vs {len(g)}")
    return [a + b for a, b in zip(f, g)]


def sub(f: list[int], g: list[int]) -> list[int]:
    if len(f) != len(g):
        raise ValueError(f"degree mismatch: {len(f)} vs {len(g)}")
    return [a - b for a, b in zip(f, g)]


def neg(f: list[int]) -> list[int]:
    return [-a for a in f]


def mul(f: list[int], g: list[int]) -> list[int]:
    """Negacyclic product f*g mod (x^n + 1), by Kronecker substitution.

    Each polynomial becomes one big int, a coefficient per byte-aligned
    slot wide enough for any coefficient of the product; one big-int
    multiply (CPython's Karatsuba) then gives all 2n - 1 coefficients,
    which are read back and folded with x^n = -1.
    """
    n = check_ring(f)
    if len(g) != n:
        raise ValueError(f"degree mismatch: {n} vs {len(g)}")
    f = [int(c) for c in f]
    g = [int(c) for c in g]
    # |product coefficient| < n 2^(bits f + bits g) < 2^(slot bits - 1)
    width = _bits(f) + _bits(g) + n.bit_length() + 2
    nbytes = (width + 7) >> 3
    half = bytes(nbytes - 1) + b"\x80"  # 2^(slot bits - 1), little-endian
    prod = _pack(f, half) * _pack(g, half) + int.from_bytes(half * (2 * n), "little")
    # Every slot now holds its coefficient plus ``half``, in [0, 2 half).
    slots = struct.iter_unpack(f"{nbytes}s", prod.to_bytes(2 * n * nbytes, "little"))
    bias = int.from_bytes(half, "little")
    c = [int.from_bytes(s, "little") - bias for (s,) in slots]
    return [lo - hi for lo, hi in zip(c[:n], c[n:])]


def _bits(f: list[int]) -> int:
    """Bit length of the largest |coefficient|."""
    return max(max(f), -min(f)).bit_length()


def _pack(f: list[int], half: bytes) -> int:
    """sum_i f_i 2^(8 i len(half)) for |f_i| < ``half``: the biased
    slots are non-negative, so they pack byte-wise, and the bias of every
    slot is subtracted at once."""
    bias = int.from_bytes(half, "little")
    packed = b"".join((c + bias).to_bytes(len(half), "little") for c in f)
    return int.from_bytes(packed, "little") - int.from_bytes(half * len(f), "little")


def adjoint(f: list[int]) -> list[int]:
    """Hermitian adjoint f*(x) = f(1/x) mod (x^n + 1).

    In coefficients: f*_0 = f_0 and f*_i = -f_{n-i} for i > 0. In the FFT
    domain this is complex conjugation.
    """
    n = check_ring(f)
    if n == 1:
        return list(f)
    return [f[0]] + [-f[n - i] for i in range(1, n)]


def galois_conjugate(f: list[int]) -> list[int]:
    """f(-x): negate odd-degree coefficients."""
    return [c if i % 2 == 0 else -c for i, c in enumerate(f)]


def split(f: list[int]) -> tuple[list[int], list[int]]:
    """Even/odd split: f(x) = f0(x^2) + x f1(x^2)."""
    n = check_ring(f)
    if n < 2:
        raise ValueError("cannot split a degree-1 ring element")
    return f[0::2], f[1::2]


def merge(f0: list[int], f1: list[int]) -> list[int]:
    """Inverse of :func:`split`."""
    if len(f0) != len(f1):
        raise ValueError(f"half-size mismatch: {len(f0)} vs {len(f1)}")
    out = [0] * (2 * len(f0))
    out[0::2] = f0
    out[1::2] = f1
    return out


def field_norm(f: list[int]) -> list[int]:
    """Field norm N(f) = f(x) f(-x) folded into Z[x]/(x^{n/2} + 1).

    With f = fe(x^2) + x fo(x^2): N(f)(x) = fe(x)^2 - x fo(x)^2.
    This is the descent map of NTRUSolve's tower of rings.
    """
    fe, fo = split(f)
    fe2 = mul(fe, fe)
    fo2 = mul(fo, fo)
    m = len(fe)
    out = list(fe2)
    # subtract x * fo2 (negacyclic shift by one)
    out[0] += fo2[m - 1]
    for i in range(1, m):
        out[i] -= fo2[i - 1]
    return out


def lift(f: list[int]) -> list[int]:
    """Map f(x) in Z[x]/(x^{n/2}+1) to f(x^2) in Z[x]/(x^n + 1)."""
    out = [0] * (2 * len(f))
    out[0::2] = f
    return out


def sqnorm(*polys: list[int]) -> int:
    """Squared Euclidean norm of the concatenation of coefficient vectors."""
    return sum(c * c for f in polys for c in f)


def mod_q(f: list[int], q: int) -> list[int]:
    return [c % q for c in f]


def mul_mod_q(f: list[int], g: list[int], q: int) -> list[int]:
    return [c % q for c in mul(f, g)]


def inverse_mod_q(f: list[int], q: int) -> list[int]:
    """Inverse of f in Z_q[x]/(x^n + 1) for prime q, or raise ValueError.

    Uses the FFT-like tower: f is invertible iff all its NTT evaluations
    are nonzero. Implemented via evaluation at the 2n-th roots of unity
    mod q (delegates to :mod:`repro.math.ntt`).
    """
    from repro.math import ntt  # local import to avoid a cycle at import time

    n = check_ring(f)
    evals = ntt.ntt(mod_q(f, q), q)
    if any(e == 0 for e in evals):
        raise ValueError("polynomial is not invertible mod q")
    inv_evals = [pow(e, q - 2, q) for e in evals]
    return ntt.intt(inv_evals, q)
