"""64-bit frequent pattern compression (FPC).

The paper's baseline codecs (CompEx, CRADE) build on a 64-bit variant of
frequent pattern compression: each word is matched against a small set of
frequent patterns and, when one matches, stored as a 3-bit prefix plus a
short payload.  The pattern set below follows the classic FPC table lifted
to 64-bit words (zero word, narrow sign-extended values, a zero-padded
upper half, repeated bytes), with prefix 0b111 reserved for uncompressed
words.  :func:`fpc_match` classifies by arithmetic, and words below 256
by the :data:`FPC_SMALL_WORD_PREFIX` table.
"""

from typing import Optional

from repro.common.bitops import WORD_BITS, WORD_MASK, mask_word, sign_extend
from repro.encoding.base import EncodedWord, WordCodec
from repro.encoding.expansion import policy_for_size
from repro.encoding.memo import DEFAULT_MEMO_ENTRIES, LruMemo

FPC_TAG_BITS = 3

# prefix -> (name, payload_bits)
FPC_PATTERNS = {
    0b000: ("zero", 0),
    0b001: ("se4", 4),
    0b010: ("se8", 8),
    0b011: ("se16", 16),
    0b100: ("se32", 32),
    0b101: ("zero-low-half", 32),
    0b110: ("repeated-bytes", 8),
    0b111: ("uncompressed", WORD_BITS),
}

#: prefix -> payload bits (parallel to FPC_PATTERNS).
FPC_PREFIX_PAYLOAD_BITS = tuple(FPC_PATTERNS[prefix][1] for prefix in range(8))

# prefix -> (shift, mask): a classified word's payload is its low bits,
# or its high half for the zero-low-half pattern.
_PAYLOAD_FIELDS = tuple(
    (32 if prefix == 0b101 else 0, (1 << bits) - 1)
    for prefix, bits in enumerate(FPC_PREFIX_PAYLOAD_BITS)
)

# A word repeats one byte iff it equals that byte times this.
_BYTE_LANES = 0x0101_0101_0101_0101


#: word value (< 256) -> FPC prefix class, as :func:`fpc_match` finds
#: it: zero, then 4-, 8- or 16-bit sign extension (no nonzero small word
#: repeats a byte).  Small words dominate log and metadata traffic
#: (counters, keys, flags), so the full pattern match is skipped for them.
FPC_SMALL_WORD_PREFIX = tuple(
    0b000 if w == 0 else 0b001 if w < 0x8 else 0b010 if w < 0x80 else 0b011
    for w in range(256)
)


def fpc_match(word: int) -> int:
    """Return the FPC prefix for the smallest pattern matching ``word``.

    The patterns are tested in priority order by arithmetic: a word
    fits *n* signed bits iff ``(word + 2**(n-1)) & WORD_MASK`` is below
    ``2**n``.
    """
    word &= WORD_MASK
    if word < 256:
        # Small words dominate log metadata and workload values; their
        # prefix class is a table lookup.
        return FPC_SMALL_WORD_PREFIX[word]
    if (word + 0x8) & WORD_MASK < 0x10:
        return 0b001
    if word == (word & 0xFF) * _BYTE_LANES:
        return 0b110
    if (word + 0x80) & WORD_MASK < 0x100:
        return 0b010
    if (word + 0x8000) & WORD_MASK < 0x1_0000:
        return 0b011
    if (word + 0x8000_0000) & WORD_MASK < 0x1_0000_0000:
        return 0b100
    if word & 0xFFFF_FFFF == 0:
        return 0b101
    return 0b111


def fpc_payload(word: int, prefix: int) -> int:
    """The payload of a 64-bit ``word`` that :func:`fpc_match` classed as ``prefix``."""
    shift, mask = _PAYLOAD_FIELDS[prefix]
    return word >> shift & mask


def fpc_compress(word: int) -> "tuple[int, int, int]":
    """Compress a word; returns (prefix, payload, payload_bits)."""
    word &= WORD_MASK
    prefix = fpc_match(word)
    return prefix, fpc_payload(word, prefix), FPC_PREFIX_PAYLOAD_BITS[prefix]


def fpc_decompress(prefix: int, payload: int) -> int:
    """Inverse of :func:`fpc_compress`."""
    name, bits = FPC_PATTERNS[prefix]
    if payload >> bits:
        raise ValueError("payload wider than pattern %s allows" % name)
    if prefix == 0b000:
        return 0
    if prefix in (0b001, 0b010, 0b011, 0b100):
        return sign_extend(payload, bits)
    if prefix == 0b101:
        return payload << 32
    if prefix == 0b110:
        return int.from_bytes(bytes([payload]) * 8, "little")
    return mask_word(payload)


class FpcCodec(WordCodec):
    """FPC as a standalone word codec.

    With ``expansion_enabled`` the codec becomes the compression front end
    of CRADE (see :mod:`repro.encoding.crade`); standalone FPC writes the
    compressed bits with the raw 3-bits-per-cell mapping, which already
    saves cells because fewer bits are programmed.
    """

    name = "fpc"
    context_free = True
    #: Sideband tag bits of every encoding: the 3-bit prefix.
    tag_bits = FPC_TAG_BITS

    def __init__(self, expansion_enabled: bool = False) -> None:
        self._expansion_enabled = expansion_enabled
        self._memo = LruMemo(DEFAULT_MEMO_ENTRIES)
        # prefix -> the cell mapping of its payload size.
        self._policies = tuple(
            policy_for_size(bits, expansion_enabled)
            for bits in FPC_PREFIX_PAYLOAD_BITS
        )

    def compute(self, word: int) -> EncodedWord:
        """Classify and encode a 64-bit ``word``: the step behind the memo."""
        prefix = fpc_match(word)
        # The prefix lives in the per-word tag cells (CompEx stores
        # compression tags in a separate tag array); the payload alone
        # maps onto the 22 data cells.
        return EncodedWord(
            self.name,
            fpc_payload(word, prefix),
            FPC_PREFIX_PAYLOAD_BITS[prefix],
            self.tag_bits,
            self._policies[prefix],
            prefix,
        )

    def encode(self, word: int, old_word: Optional[int] = None) -> EncodedWord:
        word &= WORD_MASK
        memo = self._memo
        encoded = memo.get(word)
        if encoded is None:
            encoded = self.compute(word)
            memo.put(word, encoded)
        return encoded

    def decode(self, encoded: EncodedWord, old_word: Optional[int] = None) -> int:
        if encoded.method != self.name:
            raise ValueError(
                "%s codec cannot decode a %r encoding" % (self.name, encoded.method)
            )
        prefix = encoded.tag_payload & ((1 << FPC_TAG_BITS) - 1)
        return fpc_decompress(prefix, encoded.payload)
