"""``series.csv`` built in numpy, one block of rows at a time.

Each block is one ``uint8`` buffer: per row, fixed-width fields of ASCII
bytes with NULs around them (``n``; the level's middle columns with their
commas; the parts of ``a_n``; the row end), side by side.  Dropping the
NULs leaves the rows, and as the CSV holds no NUL that drop is exact.

Floats are written as their ``repr``.  For ``a_n`` in ``[1e-4, 1e16)``, where
``repr`` uses fixed notation, :func:`_shortest` finds its digits in numpy by
the rule of CPython's ``repr`` (Gay's shortest round trip: the shortest
digits that read back to the double, then the closest, then the even);
every other value goes through ``repr``.  ``ndarray.astype("S32")`` also
gives ``repr``'s text (it matched on 4M random doubles), but is slower than
``repr`` itself: for series-dense's 196,695 values of ``a_n`` it takes
191 ms, ``repr`` 118 ms and :func:`_float_fields` 29 ms.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .averages import Series

__all__: list[str] = []  # private: cli.cmd_series calls write_series

# rows formatted per write: on series-dense a block's buffer and temporaries
# peak at 2.2 MB of traced allocations, all 196,695 rows at once at 35 MB;
# blocks of 2**14 rows take the same time, of 2**12 rows about 10% more
_CSV_BLOCK_ROWS = 1 << 13

_HEADER = b"n,overlap_num,overlap_den,integrand,a_n,is_milestone\r\n"
_ROW_ENDS = np.frombuffer(b",0\r\n,1\r\n", dtype=np.uint8).reshape(2, 4)
_N_WIDTH = 19  # digits of the largest int64
_LIMB = 10**9  # decimal digits per uint32 limb: 9

# 10**k for 0 <= k <= 22, every one an exact double (5**22 < 2**53)
_POW10 = 10.0 ** np.arange(23)
# 10**k for 1 <= k <= 18: n has 1 + (number of these <= n) digits
_INT_POW10 = 10 ** np.arange(1, _N_WIDTH, dtype=np.int64)
# _KEEP[d]: 0xFF on the last d of _N_WIDTH columns, 0 on the leading zeros
_KEEP = np.where(
    np.arange(_N_WIDTH) >= _N_WIDTH - np.arange(_N_WIDTH + 1)[:, None], 0xFF, 0
).astype(np.uint8)
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_ZERO, _POINT = ord("0"), ord(".")


def write_series(path: Path, series: Series) -> None:
    """Write ``series`` as CSV with CRLF line ends and floats as their repr."""
    mid = _byte_table(
        [f",{o.numerator},{o.denominator},{g!r}," for o, g in series.levels]
    )
    with path.open("wb") as fh:
        fh.write(_HEADER)
        for i in range(0, len(series), _CSV_BLOCK_ROWS):
            block = slice(i, i + _CSV_BLOCK_ROWS)
            rows = np.concatenate(
                (
                    _integer_field(series.n[block]),
                    mid[series.level[block]],
                    *_float_fields(series.a_n[block]),
                    _ROW_ENDS[series.is_milestone[block].view(np.uint8)],
                ),
                axis=1,
            ).ravel()
            fh.write(rows[rows != 0].tobytes())


def _byte_table(strings: list[str]) -> np.ndarray:
    """One row of ASCII bytes per string, NUL-padded to the longest."""
    table = np.array([s.encode("ascii") for s in strings], dtype=bytes)
    return table.view(np.uint8).reshape(len(strings), table.itemsize)


def _digits(v: np.ndarray, width: int) -> np.ndarray:
    """ASCII digits of the non-negative int64 ``v``, zero-padded to
    ``width``, one row per place: int64 splits ``v`` into 9-digit limbs,
    and each limb yields its digits in uint32."""
    out = np.empty((width, v.size), dtype=np.uint8)
    col = width
    while col:  # floor division by a scalar is far faster than np.divmod
        rest = v // _LIMB
        limb = (v - rest * _LIMB).astype(np.uint32)
        v = rest
        for _ in range(min(9, col)):
            col -= 1
            rest = limb // 10
            out[col] = limb - rest * 10
            limb = rest
    out += _ZERO
    return out


def _integer_field(n: np.ndarray) -> np.ndarray:
    """``str(n)`` of each non-negative int64, right-aligned in NULs to the
    width of the largest."""
    places = 1 + np.searchsorted(_INT_POW10, n, side="right")
    width = int(places.max())
    return _digits(n, width).T & _KEEP[places, _N_WIDTH - width :]


def _float_fields(x: np.ndarray) -> list[np.ndarray]:
    """``repr(x)`` of each float64 as fields of bytes side by side, with
    NULs between and after them."""
    fixed = (x >= 1e-4) & (x < 1e16)
    fields = _fixed_repr(np.where(fixed, x, 1.0))
    rest = np.flatnonzero(~fixed)
    if rest.size:
        # the other values in a field of their own, NUL where the kernel writes
        for field in fields:
            field[rest] = 0
        text = _byte_table([repr(v) for v in x[rest].tolist()])
        fields.append(np.zeros((x.size, text.shape[1]), dtype=np.uint8))
        fields[-1][rest] = text
    return fields


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo)`` with ``hi = fl(a*b)`` and ``hi + lo == a*b`` exactly
    (Dekker), barring overflow and underflow."""
    hi = a * b
    a1, a2 = _split(a)
    b1, b2 = _split(b)
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


def _scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``k`` with ``X = x * 10**k`` in ``[1e16, 1e17)``, and ``X = hi + lo``.

    ``log10`` may miss ``k`` by one next to a power of ten, so ``k`` is
    corrected by comparing the exact ``X`` with the bounds: ``hi`` is ``X``
    rounded, so where it equals a bound the sign of ``lo`` decides.
    """
    k = 16 - np.floor(np.log10(x)).astype(np.int64)
    hi, lo = _two_product(x, _POW10[k])
    k += (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    k -= (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    hi, lo = _two_product(x, _POW10[k])
    return k, hi, lo


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digits of ``repr(x)`` for ``x`` in ``[1e-4, 1e16)``, as an int64
    ``q`` in ``[1e16, 1e17)`` with trailing zeros, and its decimal point:
    ``repr(x)`` reads ``0.q * 10**point`` with the zeros dropped.

    ``X = x * 10**k`` holds 17 integer digits, and ``x``'s rounding interval
    scaled alike is ``[X - down, X + up]``, both half-widths exact: half an
    ulp of ``x`` times ``10**k``, the lower one halved at a power of two.
    Its endpoints read back to ``x`` only for an even mantissa.  The
    interval is wider than 1 and narrower than 23, so it holds an integer
    and at most one multiple of 100: the shortest digits are the nearer of
    the two multiples of 100 around ``X``, else of 10, else of 1, that lies
    in the interval, the closer one where both do, the even one at a tie.
    Every quantity compared is exact: ``frac`` and the distances below 100
    are multiples of ``2**(e + k)``, with ``x = m * 2**e``, and need fewer
    than 53 bits for ``x >= 1e-4``.
    """
    k, hi, lo = _scaled(x)
    mant, exp = np.frexp(x)  # x = mant * 2**exp, mant in [0.5, 1)
    up = np.ldexp(_POW10[k], exp - 54)
    down = np.where(mant == 0.5, up / 2, up)
    closed = (np.ldexp(mant, 53).astype(np.int64) & 1) == 0
    lo_int = np.floor(lo)
    whole = hi.astype(np.int64) + lo_int.astype(np.int64)  # floor(X)
    frac = lo - lo_int
    q = whole
    for p in (1, 10, 100):  # the larger scale that hits overrides
        quotient = whole // p
        below = quotient * p
        d_down = (whole - below) + frac
        d_up = p - d_down
        down_in = (d_down < down) | (closed & (d_down == down))
        up_in = (d_up < up) | (closed & (d_up == up))
        odd = quotient & 1 == 1
        take_up = up_in & (~down_in | (d_up < d_down) | ((d_up == d_down) & odd))
        q = np.where(down_in | up_in, below + np.where(take_up, p, 0), q)
    carry = q == 10**17  # rounded up to the next power of ten
    return np.where(carry, 10**16, q), 17 - k + carry


def _fixed_repr(x: np.ndarray) -> list[np.ndarray]:
    """``repr(x)`` for ``x`` in ``[1e-4, 1e16)`` as four fields with NULs
    between and after their bytes: the integer part, the point, the zeros
    that open the fraction when ``x < 0.1``, then 17 places of which the
    fraction takes the last ``17 - point`` up to its last nonzero digit, or
    "0"."""
    q, point = _shortest(x)
    split = _INT_POW10[16 - np.maximum(point, 0)]  # 10**(17 - max(point, 0))
    whole = q // split
    frac = q - whole * split
    places = _digits(frac, 17)
    trailing = np.ones(x.size, dtype=bool)
    for col in range(16, -1, -1):  # NUL the trailing zeros and the whole part
        trailing &= places[col] == _ZERO
        places[col] *= ~(trailing | (point > col))
    places[16, frac == 0] = _ZERO
    opening = np.where(np.arange(3) >= 3 + point[:, None], _ZERO, 0).astype(np.uint8)
    return [
        _integer_field(whole),
        np.full((x.size, 1), _POINT, dtype=np.uint8),
        opening,
        places.T,
    ]
