"""Base-Delta-Immediate compression (Pekhimenko et al., PACT 2012).

BDI is the other mainstream memory compressor the paper cites ([46]); we
provide it as an alternative general-purpose codec for SLDE so the
"alternative encoding method" of Figure 10 can be swapped (CRADE is the
default, as in the paper).

The classic algorithm works on 32-byte/64-byte blocks; scaled to our
64-bit word granularity it becomes *base+delta over the word's byte
lanes*: the word is split into 2/4/8-byte lanes, the first lane is the
base, and the remaining lanes are stored as narrow deltas.  A zero word
and an immediate (repeated-lane) word compress further.  The 4-bit scheme
tag rides in the sideband tag cells like the FPC prefix.

Schemes (word = 8 bytes):

====  =====================================  ============
tag   scheme                                 payload bits
====  =====================================  ============
0     zero word                              0
1     repeated 2-byte lane                   16
2     base 4 bytes + one 2-byte delta        48 (4B base, 2x 2B lanes: base + d)
3     base 8 bytes, 4x 2-byte lanes, 1B d    40
4     base 8 bytes, 2x 4-byte lanes, 2B d    48
5     uncompressed                           64
====  =====================================  ============
"""

from typing import Optional

from repro.common.bitops import WORD_BITS, WORD_MASK, mask_word
from repro.encoding.base import EncodedWord, WordCodec
from repro.encoding.expansion import policy_for_size
from repro.encoding.memo import DEFAULT_MEMO_ENTRIES, LruMemo

BDI_TAG_BITS = 4


def _lanes(word: int, lane_bytes: int):
    lane_bits = 8 * lane_bytes
    mask = (1 << lane_bits) - 1
    return [(word >> (i * lane_bits)) & mask for i in range(8 // lane_bytes)]


def _fits_delta(value: int, base: int, lane_bits: int, delta_bits: int) -> Optional[int]:
    """Signed delta of two unsigned lanes, if representable."""
    half = 1 << (lane_bits - 1)
    delta = (value - base + half) % (1 << lane_bits) - half  # wrap-aware
    if -(1 << (delta_bits - 1)) <= delta < (1 << (delta_bits - 1)):
        return delta & ((1 << delta_bits) - 1)
    return None


def bdi_compress(word: int):
    """Returns (tag, payload, payload_bits)."""
    word = mask_word(word)
    if word == 0:
        return 0, 0, 0
    lanes2 = _lanes(word, 2)
    if all(lane == lanes2[0] for lane in lanes2):
        return 1, lanes2[0], 16
    # base(2-byte lanes) + 1-byte deltas: 16-bit base + 4 x 8-bit deltas.
    deltas = [_fits_delta(lane, lanes2[0], 16, 8) for lane in lanes2]
    if all(d is not None for d in deltas):
        payload = lanes2[0]
        for i, d in enumerate(deltas):
            payload |= d << (16 + 8 * i)
        return 3, payload, 16 + 8 * 4
    lanes4 = _lanes(word, 4)
    deltas4 = [_fits_delta(lane, lanes4[0], 32, 16) for lane in lanes4]
    if all(d is not None for d in deltas4):
        payload = lanes4[0]
        for i, d in enumerate(deltas4):
            payload |= d << (32 + 16 * i)
        return 4, payload, 32 + 16 * 2
    return 5, word, WORD_BITS


def bdi_decompress(tag: int, payload: int) -> int:
    if tag == 0:
        return 0
    if tag == 1:
        lane = payload & 0xFFFF
        return lane | (lane << 16) | (lane << 32) | (lane << 48)
    if tag == 3:
        base = payload & 0xFFFF
        word = 0
        for i in range(4):
            delta = (payload >> (16 + 8 * i)) & 0xFF
            if delta & 0x80:
                delta -= 0x100
            word |= ((base + delta) & 0xFFFF) << (16 * i)
        return word
    if tag == 4:
        base = payload & 0xFFFF_FFFF
        word = 0
        for i in range(2):
            delta = (payload >> (32 + 16 * i)) & 0xFFFF
            if delta & 0x8000:
                delta -= 0x10000
            word |= ((base + delta) & 0xFFFF_FFFF) << (32 * i)
        return word
    if tag == 5:
        return mask_word(payload)
    raise ValueError("unknown BDI tag %d" % tag)


class BdiCodec(WordCodec):
    """BDI + expansion coding, as an alternative to CRADE in SLDE."""

    name = "bdi"
    context_free = True

    def __init__(self, expansion_enabled: bool = True) -> None:
        self._expansion_enabled = expansion_enabled
        self._memo = LruMemo(DEFAULT_MEMO_ENTRIES)

    def compute(self, word: int) -> EncodedWord:
        """Compress and encode a 64-bit ``word``: the step behind the memo."""
        tag, payload, bits = bdi_compress(word)
        return EncodedWord(
            self.name,
            payload,
            bits,
            BDI_TAG_BITS,
            policy_for_size(bits, self._expansion_enabled),
            tag,
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
            raise ValueError("not a BDI encoding: %r" % encoded.method)
        return bdi_decompress(encoded.tag_payload, encoded.payload)
