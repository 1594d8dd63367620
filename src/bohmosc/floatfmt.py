"""Exact "%.17g" text of float64 arrays, in numpy.

`format_into` writes each value's "%.17g" text, followed by a separator,
into a canvas of 32 bytes a cell, NUL-padded.  Deleting the NUL bytes of
a canvas (bytes.translate(None, b"\0")) gives the text of a whole block
of cells at once, the text a Python loop of "%.17g" % value would give.

How a finite nonzero value a·sign is printed.  frexp splits a = f·2^E,
1/2 <= f < 1, exactly.  The decimal exponent X = floor(log10 a) is k(E)
or k(E) + 1, with k(E) = floor(log10 2^(E-1)), and a per-E mantissa
threshold picks which.  Then y = a·10^(16-X) lies in [10^16, 10^17), and
D = round(y) carries the 17 significant digits (D = 10^17 rounds up to
10^16 at exponent X + 1).  y is f times the constant C = 2^E·10^(16-X),
which is held as a double-double Ch + Cl, built from exact Python
integers for each exponent when a value first needs it.  Dekker's exact
product (Numer. Math. 18, 1971) gives f·Ch = p + e with no error, and
y = p + (e + f·Cl) is known to better than 1e-14 of a unit; p, at least
10^16, is an integer, so D = p + rint(e + f·Cl).  The rounding is
certain unless the fraction of y lies within TIE_MARGIN (1e-9, far above
the 1e-14) of 1/2.  Those values, exact ties among them, and NaN and the
infinities are printed by "%.17g" itself, so every cell is rounded as
Python's correctly rounding dtoa rounds it, by construction.

D's 17 digits come from 4-digit lookup words.  A cell's canvas is four
words: the sign, the "0.000" prefix of -4 <= X < 0, the lead digit and a
'.' slot; 16 digits, packed; then a spare byte, the exponent and the
separator.  The cell's layout (sign, %g form, count of digits through the
last nonzero one) masks out what %g does not print.  At 1 <= X <= 15 the
'.' falls among the packed digits, and those past it move one byte on.
The fixed form is used for -4 <= X < 17 and the exponent form, with at
least two exponent digits, otherwise.  ±0 print as "0" and "-0".
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["CELL_WORDS", "TIE_MARGIN", "format_into"]

# uint64 words of one cell's canvas, 32 bytes for at most 25 of text and
# separator ("-1.2345678901234567e-308,").
CELL_WORDS = 4
# Values whose scaled fraction lies this close to 1/2 are printed by "%.17g".
TIE_MARGIN = 1e-9

_E_OFFSET = 1074             # frexp exponents E run from -1073 (5e-324) to 1024
_N_EXPONENTS = _E_OFFSET + 1025
_SPLIT = 134217729.0         # 2^27 + 1, Veltkamp's splitting constant
_FORMS = 22                  # fixed form at X = -4 .. 16, then the exponent form
_DIGITS = 17


def _words(rows) -> np.ndarray:
    """Rows of 8 bytes as little-endian uint64 words, one per row."""
    return np.ascontiguousarray(rows, np.uint8).reshape(-1, 8).view("<u8")[:, 0]


@functools.cache
def _digit_tables():
    """The lead digit d as canvas word 0, each 4-digit group "dddd" as the
    low and as the high half of a word, and, per group position w and
    group value, the 1-based place among the 17 digits of its last nonzero
    digit (1 for a zero group)."""
    digits = np.indices((10, 10, 10, 10), np.int8).reshape(4, -1).T
    packed = np.ascontiguousarray(48 + digits, np.uint8).view("<u4")[:, 0].astype(np.uint64)
    lead = np.zeros((10, 8), np.uint8)
    lead[:, 6] = 48 + np.arange(10)
    last = np.max(np.where(digits > 0, np.arange(1, 5, dtype=np.int8), 0), axis=1)
    last_place = np.where(last > 0, last + 4 * np.arange(4, dtype=np.int8)[:, None] + 1, 1)
    return _words(lead), np.stack([packed, packed << 32]), last_place


@functools.cache
def _layouts():
    """By layout (sign, form, digit count): word 0's constant bytes, and for
    words 1 and 2 the masks of the digits printed in place and of those
    moved one byte on past a '.', and the '.' (the lead digit always shows)."""
    negative = np.arange(2)[:, None, None, None]  # axes: sign, form, count, byte
    x = np.arange(_FORMS)[:, None, None] - 4
    count = np.arange(1, _DIGITS + 1)[:, None]
    fixed = x < _FORMS - 5
    # the sign, the "0." and zeros of X < 0, a '.' after the lead digit
    byte = np.arange(8)
    prefix = (x < 0) & (byte >= 1) & (byte <= 1 - x)
    word0 = (np.where(byte == 0, 45 * negative, 0) + np.where(prefix, 48 - 2 * (byte == 2), 0)
             + np.where((byte == 7) & ((x == 0) | ~fixed) & (count > 1), 46, 0))
    # digit 1 + j at byte j, through the last nonzero one and every integer
    # digit; a '.' after digit X takes byte X, and the digits past it move on
    j = np.arange(16)
    printed = j < np.where(fixed, np.maximum(count, x + 1), count) - 1
    moved = printed & fixed & (x >= 1) & (j >= x)
    parts = np.array([255 * (printed & ~moved), 255 * moved, 46 * (moved & (j == x))])
    return (_words(np.broadcast_to(word0, (2, _FORMS, _DIGITS, 8))),
            _words(np.broadcast_to(parts[:, None], (3, 2, _FORMS, _DIGITS, 16)))
            .reshape(3, -1, 2).transpose(0, 2, 1).copy())


@functools.cache
def _tails(sep: bytes) -> np.ndarray:
    """Canvas word 3 by X + 324: a spare byte, "e±XX" in the exponent form, sep."""
    rows = np.zeros((324 + 309, 8), np.uint8)
    for x in range(-324, 309):
        text = (b"" if -4 <= x <= 16 else b"e%+03d" % x) + sep
        rows[x + 324, 1:1 + len(text)] = list(text)
    return _words(rows)


def _exact(power10: int, power2: int) -> tuple[int, int]:
    """10^power10 · 2^power2 as an integer ratio."""
    num = 10**max(power10, 0) << max(power2, 0)
    den = 10**max(-power10, 0) << max(-power2, 0)
    return num, den


def _floor_log10_pow2(n: int) -> int:
    """floor(log10 2^n), exactly."""
    return len(str(2**n)) - 1 if n >= 0 else len(str(5**-n)) - 1 + n


class _Scales:
    """Per binary exponent E: k(E), the mantissa threshold at which a
    reaches 10^(k+1), and for X = k and k + 1 the double-double
    2^E·10^(16-X), its high part split in Veltkamp halves.  An exponent's
    entries are built on first need and never change afterwards."""

    def __init__(self):
        self.low, self.high = _N_EXPONENTS, -1   # the built range of indices
        self.k = np.zeros(_N_EXPONENTS, np.int64)
        self.threshold = np.zeros(_N_EXPONENTS)
        # [X - k, index]
        self.head = np.zeros((2, _N_EXPONENTS))
        self.head_low = np.zeros((2, _N_EXPONENTS))
        self.tail = np.zeros((2, _N_EXPONENTS))

    def cover(self, low: int, high: int) -> None:
        """Build the indices from low to high, keeping the built range whole."""
        if self.low > self.high:
            self._build(low)
            self.low = self.high = low
        for index in [*range(low, self.low), *range(self.high + 1, high + 1)]:
            self._build(index)
        self.low, self.high = min(low, self.low), max(high, self.high)

    def _build(self, index: int) -> None:
        e = index - _E_OFFSET
        k = _floor_log10_pow2(e - 1)
        self.k[index] = k
        # the least double at or above 10^(k+1) / 2^e
        num, den = _exact(k + 1, -e)
        threshold = num / den        # int / int is correctly rounded
        t_num, t_den = threshold.as_integer_ratio()
        if t_num * den < num * t_den:
            threshold = math.nextafter(threshold, math.inf)
        self.threshold[index] = threshold
        for up in (0, 1):
            num, den = _exact(16 - k - up, e)
            high = num / den
            h_num, h_den = high.as_integer_ratio()
            self.tail[up, index] = (num * h_den - h_num * den) / (den * h_den)
            scaled = _SPLIT * high
            self.head[up, index] = scaled - (scaled - high)
            self.head_low[up, index] = high - self.head[up, index]


@functools.cache
def _scales() -> _Scales:
    return _Scales()


def _round17(values: np.ndarray):
    """(D, X, slow) of each value: D its 17 significant digits as an
    integer in [10^16, 10^17), 0 for ±0, and X its decimal exponent; slow
    marks the values to print with "%.17g" itself."""
    a = np.abs(values)
    finite = np.isfinite(a)
    zero = a == 0
    a[~finite | zero] = 1.0
    f, e = np.frexp(a)
    index = e.astype(np.intp) + _E_OFFSET
    scales = _scales()
    scales.cover(int(index.min()), int(index.max()))
    up = f >= scales.threshold[index]
    x = scales.k[index] + up
    pick = index + _N_EXPONENTS * up
    head = scales.head.ravel()[pick]
    head_low = scales.head_low.ravel()[pick]
    # Dekker: f·(head + head_low) = p + error exactly
    scaled = _SPLIT * f
    f_head = scaled - (scaled - f)
    f_low = f - f_head
    p = f * (head + head_low)
    error = ((f_head * head - p) + f_head * head_low + f_low * head) + f_low * head_low
    fraction = error + f * scales.tail.ravel()[pick]
    rounded = np.rint(fraction)
    slow = (np.abs(fraction - rounded) > 0.5 - TIE_MARGIN) | ~finite
    d = p.astype(np.int64) + rounded.astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    x += carry
    d[zero] = 0
    x[zero] = 0
    return d, x, slow


def format_into(canvas: np.ndarray, values: np.ndarray, sep: bytes) -> int:
    """Write the "%.17g" text of each value, then sep, into the rows of
    canvas, an (n, CELL_WORDS) uint64 array whose rows are contiguous, as
    32 NUL-padded bytes a row in the four-word layout of the module
    docstring.  Returns how many values "%.17g" printed itself."""
    values = np.asarray(values, np.float64)
    if not values.size:
        return 0
    d, x, slow = _round17(values)
    leads, quads, last_place = _digit_tables()
    lead = d // 10**16
    d -= lead * 10**16
    high8 = d // 10**8
    low8 = d - high8 * 10**8
    g1 = high8 // 10**4
    g2 = high8 - g1 * 10**4
    g3 = low8 // 10**4
    g4 = low8 - g3 * 10**4
    count = np.maximum(np.maximum(last_place[0][g1], last_place[1][g2]),
                       np.maximum(last_place[2][g3], last_place[3][g4]))
    # X + 4 outside 0..20, negative ones wrapped to huge, is the exponent form
    form = np.minimum((x + 4).view(np.uint64), _FORMS - 1).view(np.int64)
    layout = (np.signbit(values) * _FORMS + form) * _DIGITS + count - 1
    word0, (printed, moved, point) = _layouts()
    words = canvas.view("<u8")  # little-endian: << 8 moves each byte one on
    words[:, 0] = leads[lead] | word0[layout]
    digits1 = quads[0][g1] | quads[1][g2]
    digits2 = quads[0][g3] | quads[1][g4]
    moving1 = digits1 & moved[0][layout]
    moving2 = digits2 & moved[1][layout]
    # the last byte moved in a word leads the next
    words[:, 1] = (digits1 & printed[0][layout]) | point[0][layout] | (moving1 << 8)
    words[:, 2] = ((digits2 & printed[1][layout]) | point[1][layout] | (moving2 << 8)
                   | (moving1 >> 56))
    words[:, 3] = (moving2 >> 56) | _tails(sep)[x + 324]
    slow = np.flatnonzero(slow)
    cells = canvas.view(np.uint8)
    for i in slow.tolist():
        text = b"%.17g%s" % (values[i], sep)
        cells[i] = 0
        cells[i, :len(text)] = list(text)
    return slow.size
