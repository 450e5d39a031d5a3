"""Codec interfaces and the trivial raw codec.

Encoding happens at 64-bit word granularity (the paper's log granularity).
A codec turns a word into an :class:`EncodedWord`: a payload bitstream, its
size, a tag record describing how to decode it, and the *cell mapping
policy* (how many bits each TLC cell stores).  The NVMM array turns the
encoded word into cell levels, applies data-comparison write against the
old levels, and charges latency/energy for the programmed cells only.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.common.bitops import WORD_BITS, mask_word
from repro.common.frozen import slot_init
from repro.encoding.expansion import ExpansionPolicy


def _check_encoded(payload: int, payload_bits: int, tag_bits: int) -> None:
    if payload_bits < 0 or tag_bits < 0:
        raise ValueError("bit counts cannot be negative")
    if payload < 0:
        raise ValueError("payload must be unsigned")
    if payload >> payload_bits:
        raise ValueError("payload wider than payload_bits")


@slot_init(_check_encoded)
@dataclass(frozen=True, slots=True)
class EncodedWord:
    """The result of encoding one 64-bit word for an NVMM write.

    Attributes:
        method: codec identifier, stored in the encoding type flag so the
            read path can pick the right decoder (section IV-B).
        payload: the compressed bitstream as an unsigned integer.
        payload_bits: number of meaningful bits in ``payload``.
        tag_bits: sideband tag bits this encoding needs (compression tags,
            dirty flags, encoding type flag).  They are written to NVMM too
            — into a separate per-word tag-cell group, as CompEx-style
            hardware stores compression tags in a tag array — and they
            participate in the cost model.
        tag_payload: the content of those tag bits (e.g. the FPC prefix),
            so the tag cells are programmed with real data and the decoder
            can read the prefix back.
        policy: the expansion-coding policy used to map payload bits onto
            TLC cells.
        dirty_mask: for DLDC-encoded log data, the per-byte dirty flag the
            decoder needs (also counted inside ``tag_bits``).
        silent: True when the write can be elided entirely (a *silent log
            write*, section IV-A).
    """

    method: str
    payload: int
    payload_bits: int
    tag_bits: int
    policy: ExpansionPolicy
    tag_payload: int = 0
    dirty_mask: Optional[int] = None
    silent: bool = False

    @property
    def total_bits(self) -> int:
        """Bits that must reach NVMM for this word (payload + tags)."""
        return 0 if self.silent else self.payload_bits + self.tag_bits


class WordCodec:
    """Base class for word codecs.

    Subclasses implement :meth:`encode` / :meth:`decode`.  ``old_word`` is
    the word currently stored at the target location; general-purpose
    codecs ignore it, Flip-N-Write and DLDC use it.
    """

    name = "abstract"

    #: True when :meth:`encode` ignores ``old_word`` entirely (FPC, BDI,
    #: CRADE, raw).  Memoization uses this to drop the old word from its
    #: cache keys, which multiplies the hit rate; codecs whose output
    #: depends on the old contents (Flip-N-Write) must leave it False.
    context_free = False

    def encode(self, word: int, old_word: Optional[int] = None) -> EncodedWord:
        raise NotImplementedError

    def compute(self, word: int) -> EncodedWord:
        """Encode a 64-bit ``word`` with no old word, past the memo: the
        work a memoizing :meth:`encode` does on a miss.  A codec that
        keeps no memo of its encodings (raw, Flip-N-Write) encodes."""
        return self.encode(word)

    def encode_line(
        self,
        words: Sequence[int],
        old_words: Optional[Sequence[int]] = None,
    ) -> List[EncodedWord]:
        """Encode the words of one cache line in a single call.

        The NVM module hands a 64-byte line over as one batch instead of
        eight separate calls; each word goes through :meth:`encode`, and
        so through the codec's memo.  ``old_words``, when given, must be
        parallel to ``words``.  Only SLDE overrides this, to forward the
        line to its alternative codec.
        """
        encode = self.encode
        if old_words is None or self.context_free:
            return [encode(word) for word in words]
        return [encode(word, old) for word, old in zip(words, old_words)]

    def decode(self, encoded: EncodedWord, old_word: Optional[int] = None) -> int:
        raise NotImplementedError

    def memo_stats(self) -> dict:
        """Hit/miss/eviction counters of this codec's memos.

        Keys are memo names (canonically sorted), values the dicts from
        :meth:`repro.encoding.memo.LruMemo.stats`.  FPC, CRADE and BDI
        report their result cache under ``"encode"``; SLDE reports its
        decision memo under ``"log"`` and its alternative's with an
        ``"alternative."`` prefix.  Codecs without a memo (raw,
        Flip-N-Write, DLDC) report ``{}``.
        """
        memo = getattr(self, "_memo", None)
        return {"encode": memo.stats()} if memo is not None else {}

    def clear_memos(self) -> None:
        """Drop the entries of this codec's memos.

        Result-inert: the next encodes recompute what the entries held.
        The hit, miss and eviction counters stay.  A no-op for codecs
        without a memo.
        """
        memo = getattr(self, "_memo", None)
        if memo is not None:
            memo.clear()


class RawCodec(WordCodec):
    """No compression: 64 payload bits, raw 3-bits-per-cell mapping."""

    name = "raw"
    context_free = True

    def encode(self, word: int, old_word: Optional[int] = None) -> EncodedWord:
        return EncodedWord(
            method=self.name,
            payload=mask_word(word),
            payload_bits=WORD_BITS,
            tag_bits=0,
            policy=ExpansionPolicy.RAW,
        )

    def decode(self, encoded: EncodedWord, old_word: Optional[int] = None) -> int:
        if encoded.method != self.name:
            raise ValueError("not a raw encoding: %r" % encoded.method)
        return mask_word(encoded.payload)
