"""Free-group words as freely reduced tuples of signed generator letters.

A generator with index i (0-based) is the letter i+1; its inverse is -(i+1).
The empty tuple is the identity.
"""

from __future__ import annotations

from typing import Iterable, Tuple

Word = Tuple[int, ...]

IDENTITY: Word = ()


def word(letters: Iterable[int]) -> Word:
    """Freely reduce a letter sequence into a Word."""
    out: list[int] = []
    for s in letters:
        if s == 0:
            raise ValueError("0 is not a valid letter")
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def gen(i: int) -> Word:
    """The word consisting of the single generator with index i."""
    if i < 0:
        raise ValueError("generator index must be nonnegative")
    return (i + 1,)


def w_mul(*ws: Word) -> Word:
    out: list[int] = []
    for w in ws:
        for s in w:
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
    return tuple(out)


def w_inv(w: Word) -> Word:
    return tuple(-s for s in reversed(w))


def w_pow(w: Word, k: int) -> Word:
    if k < 0:
        return w_pow(w_inv(w), -k)
    return w_mul(*[w] * k)


def commutator(a: Word, b: Word) -> Word:
    return w_mul(a, b, w_inv(a), w_inv(b))

