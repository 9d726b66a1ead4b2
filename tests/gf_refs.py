"""Naive reference implementations shared by test modules.

Deliberately slow and simple: carry-less multiply plus long division,
cofactor determinants, rank by enumerating the whole row span. Shares no
code with the package, so agreement is meaningful.
"""

from itertools import product


def ref_mul(a: int, b: int, modulus: int) -> int:
    prod = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            prod ^= a << i
        i += 1
    deg = modulus.bit_length() - 1
    while prod.bit_length() - 1 >= deg and prod:
        prod ^= modulus << (prod.bit_length() - 1 - deg)
    return prod


def ref_pow(a: int, e: int, modulus: int) -> int:
    """a^e by square-and-multiply on ref_mul; 0^0 is 1."""
    acc = 1
    while e:
        if e & 1:
            acc = ref_mul(acc, a, modulus)
        a = ref_mul(a, a, modulus)
        e >>= 1
    return acc


def ref_det(M: list[list[int]], modulus: int) -> int:
    # Cofactor expansion along the first row; characteristic 2 kills signs.
    n = len(M)
    if n == 1:
        return M[0][0]
    acc = 0
    for j in range(n):
        if M[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in M[1:]]
            acc ^= ref_mul(M[0][j], ref_det(minor, modulus), modulus)
    return acc


def ref_rank_by_span(rows: list[list[int]], q: int, modulus: int) -> int:
    """|span| = q^rank, found by brute-force enumeration. Tiny inputs only."""
    span = set()
    m = len(rows)
    width = len(rows[0]) if m else 0
    for coeffs in product(range(q), repeat=m):
        v = [0] * width
        for c, row in zip(coeffs, rows):
            if c:
                for j in range(width):
                    v[j] ^= ref_mul(c, row[j], modulus)
        span.add(tuple(v))
    r = 0
    while q**r < len(span):
        r += 1
    assert q**r == len(span), "span size is not a power of q"
    return r


def ref_matvec(M: list[list[int]], x: list[int], modulus: int) -> list[int]:
    out = []
    for row in M:
        acc = 0
        for a, b in zip(row, x):
            acc ^= ref_mul(a, b, modulus)
        out.append(acc)
    return out


def ref_matmul(A: list[list[int]], B: list[list[int]], cols: int, modulus: int) -> list[list[int]]:
    """A times B, where B has `cols` columns (B may have no rows)."""
    out = []
    for row in A:
        acc = [0] * cols
        for a, brow in zip(row, B):
            for j, b in enumerate(brow):
                acc[j] ^= ref_mul(a, b, modulus)
        out.append(acc)
    return out


def ref_powers(a: int, width: int, modulus: int) -> list[int]:
    """[a, a^2, ..., a^width], one multiplication after another."""
    out = [a]
    while len(out) < width:
        out.append(ref_mul(out[-1], a, modulus))
    return out[:width]
