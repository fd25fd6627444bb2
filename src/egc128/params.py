"""Parameter and state types for the EGC128 cipher family.

EGC128 is a 20-round balanced Feistel cipher on 128-bit blocks.  Its
nonlinear layer applies one 4-input Boolean function (Rule-A) at every
vertex of a 3-regular circulant interaction graph on 64 vertices with
neighbour offsets ``{-1, +1, +16}``.  The same structure scales down to
reduced branch widths, which the analysis modules use whenever an
exhaustive computation is feasible only at small state sizes.

Bit conventions used throughout the package:

* bit 0 of a word is the least significant bit;
* a block's canonical hex string is its value as a big-endian integer,
  so the most significant half is the left branch L and the least
  significant half is the right branch R.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

# First 320 fractional hexadecimal digits of pi.  Consecutive 16-digit
# (64-bit) words of this string are the cipher's round constants
# RC_0 .. RC_19; the derivation is re-checked from scratch in the tests.
PI_FRACTIONAL_HEX = (
    "243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89"
    "452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b5470917"
    "9216d5d98979fb1bd1310ba698dfb5ac2ffd72dbd01adfb7b8e1afed6a267e96"
    "ba7c9045f12c7f9924a19947b3916cf70801f2e2858efc16636920d871574e69"
    "a458fea3f4933d7e0d95748f728eb658718bcd5882154aee7b54a41dc25a59b5"
)

ROUND_CONSTANTS: tuple[int, ...] = tuple(
    int(PI_FRACTIONAL_HEX[16 * r : 16 * r + 16], 16) for r in range(20)
)

#: Rule-A truth table; bit k holds f(k) with k = x0 + 2*x1 + 4*x2 + 8*x3.
RULE_A_TRUTH_TABLE = 0x036F

#: LFSR feedback taps (bit positions); taps above the register width are
#: dropped for very narrow reduced instances.
LFSR_TAPS = (0, 1, 3, 4)

FULL_BRANCH_WIDTH = 64
FULL_ROUNDS = 20


def scaled_offsets(branch_width: int) -> tuple[int, int, int]:
    """Default neighbour offsets at a branch width.

    The long-range offset scales as width/4: +16 at the full width 64
    and +4 at width 16.  It is floored at +2 so the three offsets stay
    distinct at the narrowest supported widths.
    """
    return (-1, 1, max(2, round(branch_width / 4)))


@dataclass(frozen=True)
class CipherParams:
    """Width, topology, round count and round constants of one instance;
    `offsets` defaults to :func:`scaled_offsets` of the width."""

    branch_width: int = FULL_BRANCH_WIDTH
    offsets: tuple[int, int, int] | None = None
    rounds: int = FULL_ROUNDS
    # Constants derived from the fields above, computed once per instance.
    # Round constant r is RC_(r mod 20) truncated to the branch width.
    round_constants: tuple[int, ...] = field(init=False, compare=False)
    branch_mask: int = field(init=False, repr=False, compare=False)
    # Offsets mod the width, and as lane shifts in (-width/2, width/2].
    rotations: tuple[int, int, int] = field(init=False, repr=False, compare=False)
    shifts: tuple[int, int, int] = field(init=False, repr=False, compare=False)
    lfsr_tap_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = self.branch_width
        if not 4 <= w <= 64:
            raise ValueError(f"branch width {w} outside supported range [4, 64]")
        if self.rounds < 1:
            raise ValueError("round count must be >= 1")
        if self.offsets is None:
            offsets = scaled_offsets(w)
        else:
            try:                              # numpy integers become int
                offsets = tuple(operator.index(o) for o in self.offsets)
            except TypeError:
                raise ValueError(f"offsets {self.offsets!r} are not all integers") from None
        object.__setattr__(self, "offsets", offsets)
        residues = [o % w for o in offsets]
        if len(set(residues)) != 3 or 0 in residues:
            raise ValueError(f"offsets {offsets} not distinct and nonzero mod {w}")
        mask = (1 << w) - 1
        object.__setattr__(self, "round_constants", tuple(
            ROUND_CONSTANTS[r % len(ROUND_CONSTANTS)] & mask for r in range(self.rounds)))
        object.__setattr__(self, "branch_mask", mask)
        object.__setattr__(self, "rotations", tuple(residues))
        object.__setattr__(self, "shifts", tuple(k if k <= w // 2 else k - w for k in residues))
        object.__setattr__(self, "lfsr_tap_mask", sum(1 << t for t in self.lfsr_taps))

    def round_count(self, rounds: int | None) -> int:
        """The number of rounds to run: `rounds`, or the whole schedule
        when None; it must lie in 0..rounds."""
        nr = self.rounds if rounds is None else rounds
        if not 0 <= nr <= self.rounds:
            raise ValueError(f"rounds {nr} outside 0..{self.rounds}")
        return nr

    @property
    def lfsr_taps(self) -> tuple[int, ...]:
        return tuple(t for t in LFSR_TAPS if t < self.branch_width)

    @classmethod
    def full(cls) -> "CipherParams":
        """The production 128-bit instance."""
        return cls()


class _Halves:
    """A 2*width-bit value held as its high and low width-bit halves,
    the first two fields of the dataclasses :class:`Block` and
    :class:`MasterKey` (``_noun`` names the value in error messages)."""

    __slots__ = ()
    _noun: str

    def __post_init__(self):
        high, low = self._halves()
        if not (0 <= high < 1 << self.width and 0 <= low < 1 << self.width):
            raise ValueError(f"{self._noun} halves do not fit in {self.width} bits")

    @classmethod
    def from_int(cls, value: int, width: int = FULL_BRANCH_WIDTH):
        if not 0 <= value < 1 << 2 * width:
            raise ValueError(f"{cls._noun} value does not fit in {2 * width} bits")
        return cls(value >> width, value & ((1 << width) - 1), width)

    @classmethod
    def from_hex(cls, text: str, width: int = FULL_BRANCH_WIDTH):
        body = text.strip().lower().removeprefix("0x")
        if not set(body) <= set("0123456789abcdef"):
            raise ValueError(f"{text!r} is not a string of hex digits")
        digits = (2 * width + 3) // 4
        if len(body) != digits:
            raise ValueError(f"expected {digits} hex digits, got {len(body)}")
        return cls.from_int(int(body, 16), width)

    def to_int(self) -> int:
        high, low = self._halves()
        return (high << self.width) | low

    def hex(self) -> str:
        digits = (2 * self.width + 3) // 4
        return f"{self.to_int():0{digits}x}"


@dataclass(frozen=True, slots=True)
class Block(_Halves):
    """A 2*width-bit cipher block split into left and right branches."""

    left: int
    right: int
    width: int = FULL_BRANCH_WIDTH
    _noun = "block"

    def _halves(self) -> tuple[int, int]:
        return self.left, self.right

    def __xor__(self, other: "Block") -> "Block":
        if other.width != self.width:
            raise ValueError("width mismatch")
        return Block(self.left ^ other.left, self.right ^ other.right, self.width)


@dataclass(frozen=True, slots=True)
class MasterKey(_Halves):
    """A 2*width-bit key split into high and low halves."""

    high: int
    low: int
    width: int = FULL_BRANCH_WIDTH
    _noun = "key"

    def _halves(self) -> tuple[int, int]:
        return self.high, self.low
