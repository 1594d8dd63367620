"""Exact "%.17g" text of float64 arrays, in numpy.

`format_into` writes each value's "%.17g" text, followed by a separator,
into a canvas of 48 bytes a cell, NUL-padded.  Deleting the NUL bytes of
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

D's 17 digits come from 4-digit lookup words.  A cell's canvas holds a
sign, the "0.000" prefix of -4 <= X < 0, the digits with a '.' slot
after each, then the exponent and the separator; the layout of the cell
(its sign, its %g form and its count of digits through the last nonzero
one) masks out the bytes that %g does not print: the trailing zeros, the
unused '.' slots and prefix bytes.  The fixed form is used for
-4 <= X < 17 and the exponent form, with at least two exponent digits,
otherwise.  ±0 print as "0" and "-0".
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["CELL_WORDS", "TIE_MARGIN", "format_into"]

# uint64 words of one cell's canvas: prefix and lead digit, four 4-digit
# groups, then the exponent and the separator.
CELL_WORDS = 6
# Values whose scaled fraction lies this close to 1/2 are printed by "%.17g".
TIE_MARGIN = 1e-9

_E_OFFSET = 1074             # frexp exponents E run from -1073 (5e-324) to 1024
_N_EXPONENTS = _E_OFFSET + 1025
_SPLIT = 134217729.0         # 2^27 + 1, Veltkamp's splitting constant
_FORMS = 22                  # fixed form at X = -4 .. 16, then the exponent form
_DIGITS = 17


def _words(rows) -> np.ndarray:
    """Rows of 8 bytes as native uint64 words, one per row."""
    return np.ascontiguousarray(rows, np.uint8).reshape(-1, 8).view(np.uint64)[:, 0]


@functools.cache
def _digit_tables():
    """The lead digit d as canvas word 0, each 4-digit group as the word
    "d.d.d.d." with NUL in the '.' slots, and, per group position w and
    group value, the 1-based place among the 17 digits of its last nonzero
    digit (1 for a zero group)."""
    group = np.arange(10000, dtype=np.int16)
    digits = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10],
                      axis=1).astype(np.int8)
    spaced = np.zeros((10000, 8), np.uint8)
    spaced[:, 0::2] = 48 + digits
    lead = np.zeros((10, 8), np.uint8)
    lead[:, 6] = 48 + np.arange(10)
    last = np.max(np.where(digits > 0, np.arange(1, 5, dtype=np.int8), 0), axis=1)
    last_place = np.where(last > 0, last + 4 * np.arange(4, dtype=np.int8)[:, None] + 1, 1)
    return _words(lead), _words(spaced), last_place


@functools.cache
def _layouts():
    """Constant bytes of canvas words 0-4 and masks of words 1-4 (the lead
    digit in word 0 is always printed), each indexed by layout: sign,
    form, and count of digits through the last nonzero one."""
    shape = (2, _FORMS, _DIGITS, 8 * (CELL_WORDS - 1))
    masks, consts = np.zeros(shape, np.uint8), np.zeros(shape, np.uint8)
    for negative in range(2):
        for form in range(_FORMS):
            x = form - 4
            for count in range(1, _DIGITS + 1):
                mask, const = masks[negative, form, count - 1], consts[negative, form, count - 1]
                const[0] = 45 if negative else 0  # '-'
                if form == _FORMS - 1:            # d.ddde+XX
                    kept, point = count, 0 if count > 1 else None
                elif x < 0:                       # 0.000ddd
                    const[1:2 - x] = list(b"0." + b"0" * (-x - 1))
                    kept, point = count, None
                else:                             # ddd.ddd, integer digits kept
                    kept = max(count, x + 1)
                    point = x if count > x + 1 else None
                # digit i sits at byte 6 + 2i and its '.' slot at 7 + 2i
                mask[6:6 + 2 * kept:2] = 255
                if point is not None:
                    const[7 + 2 * point] = 46     # '.'
    return (_words(masks).reshape(-1, CELL_WORDS - 1)[:, 1:].T.copy(),
            _words(consts).reshape(-1, CELL_WORDS - 1).T.copy())


@functools.cache
def _tails(sep: bytes) -> np.ndarray:
    """Canvas word 5 by X + 324: "e±XX" in the exponent form, then sep."""
    rows = np.zeros((324 + 309, 8), np.uint8)
    for x in range(-324, 309):
        text = (b"" if -4 <= x <= 16 else b"e%+03d" % x) + sep
        rows[x + 324, :len(text)] = list(text)
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
    NUL-padded bytes.  Returns how many values "%.17g" printed itself."""
    values = np.asarray(values, np.float64)
    if not values.size:
        return 0
    d, x, slow = _round17(values)
    leads, spaced, last_place = _digit_tables()
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
    masks, consts = _layouts()
    canvas[:, 0] = leads[lead] | consts[0][layout]
    for w, group in enumerate((g1, g2, g3, g4), 1):
        canvas[:, w] = (spaced[group] & masks[w - 1][layout]) | consts[w][layout]
    canvas[:, 5] = _tails(sep)[x + 324]

    slow = np.flatnonzero(slow)
    cells = canvas.view(np.uint8)
    for i in slow.tolist():
        text = b"%.17g%s" % (values[i], sep)
        cells[i] = 0
        cells[i, :len(text)] = list(text)
    return slow.size
