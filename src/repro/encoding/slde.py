"""Selective log data encoding (SLDE) — paper section IV-B.

SLDE sits in the NVM module controller.  Every incoming write is encoded by
the alternative codec (CRADE by default) and, if the write carries log
data, by DLDC *in parallel*; the encoded form with the smaller size is the
one written to NVMM.  A per-entry encoding type flag records the winner so
the read path can decode (3 bits in undo+redo entries, 2 bits in redo
entries — we charge the conservative 3).
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.bitops import mask_word
from repro.common.frozen import slot_init
from repro.encoding.base import EncodedWord, WordCodec
from repro.encoding.crade import CradeCodec
from repro.encoding.dldc import DldcCodec
from repro.encoding.memo import DEFAULT_MEMO_ENTRIES, LruMemo

ENCODING_TYPE_FLAG_BITS = 3


@slot_init()
@dataclass(frozen=True, slots=True)
class LogWriteContext:
    """Everything SLDE knows about one word of log data.

    Attributes:
        old_word: value of the in-place data before the logged update (the
            undo value); source of the dirty comparison.
        dirty_mask: per-byte dirty flag carried by the log buffer entry.
        allow_dldc: False for the side of an undo+redo pair that must keep
            a self-contained encoding (the paper never DLDC-compresses the
            undo and redo data of one entry at the same time, section
            IV-B).
    """

    old_word: Optional[int]
    dirty_mask: int
    allow_dldc: bool = True


class SldeCodec(WordCodec):
    """Parallel CRADE + DLDC encoding with least-cost selection."""

    name = "slde"

    def __init__(
        self,
        expansion_enabled: bool = True,
        alternative: Optional[WordCodec] = None,
    ) -> None:
        if alternative is None:
            alternative = CradeCodec(expansion_enabled=expansion_enabled)
        self._alternative = alternative
        # DLDC keeps no memo: it is reached only through the decision
        # memo below, whose key covers its (word, dirty_mask) inputs.
        self._dldc = DldcCodec()
        self._expansion_enabled = expansion_enabled
        # SLDE delegates non-log encodes to the alternative, so its
        # context-freeness is the alternative's.
        self.context_free = alternative.context_free
        # Per-word decision memo.  The choice (and its hook report) is a
        # pure function of its key, so a hit replays the exact hook
        # arguments the compute path would have emitted.
        self._log_memo = LruMemo(DEFAULT_MEMO_ENTRIES)
        # Observation tap for the size comparator (installed by the NVM
        # module when tracing is on): called with
        # (word, chosen_method, chosen_bits, rejected_method,
        #  rejected_bits, silent) after every log-word decision.
        self.decision_hook = None

    @property
    def alternative(self) -> WordCodec:
        return self._alternative

    @property
    def dldc(self) -> DldcCodec:
        return self._dldc

    def memo_stats(self) -> dict:
        """The decision memo's counters and the alternative's, sorted."""
        stats = {"log": self._log_memo.stats()}
        for name, counters in self._alternative.memo_stats().items():
            stats["alternative.%s" % name] = counters
        return dict(sorted(stats.items()))

    def clear_memos(self) -> None:
        """Drop the decision memo's and the alternative's entries."""
        self._log_memo.clear()
        self._alternative.clear_memos()

    def encode(self, word: int, old_word: Optional[int] = None) -> EncodedWord:
        """Non-log data bypass DLDC and use the alternative codec."""
        return self._alternative.encode(word, old_word)

    def encode_line(
        self,
        words: Sequence[int],
        old_words: Optional[Sequence[int]] = None,
    ) -> List[EncodedWord]:
        """Non-log lines go straight to the alternative codec's batch."""
        return self._alternative.encode_line(words, old_words)

    def _choose(
        self,
        word: int,
        old_word: Optional[int],
        dirty_mask: int,
        allow_dldc: bool,
    ) -> Tuple[EncodedWord, tuple, EncodedWord]:
        """The size comparator as a pure function.

        Returns ``(chosen, hook_args, alternative_candidate)``.  The hook
        arguments are computed here — not fired — so memoized decisions can
        replay them verbatim, and the pair path can rewrite them when it
        overrides a side.  The alternative candidate is returned so the
        pair conflict resolution reuses the *same context-aware* encoding
        whose cost the comparator saw.
        """
        alt = self._alternative.encode(word, old_word)
        if not allow_dldc:
            hook = (word, alt.method, alt.total_bits, None, None, alt.silent)
            return alt, hook, alt
        dldc = self._dldc.encode_log(word, dirty_mask)
        if dldc.silent:
            hook = (word, "dldc", dldc.total_bits, alt.method, alt.total_bits, True)
            return dldc, hook, alt
        alt_cost = alt.total_bits + ENCODING_TYPE_FLAG_BITS
        dldc_cost = dldc.total_bits + ENCODING_TYPE_FLAG_BITS
        chosen = dldc if dldc_cost < alt_cost else alt
        rejected = alt if chosen is dldc else dldc
        hook = (
            word,
            chosen.method,
            chosen.total_bits,
            rejected.method,
            rejected.total_bits,
            chosen.silent,
        )
        return chosen, hook, alt

    def _choose_cached(
        self,
        word: int,
        old_word: Optional[int],
        dirty_mask: int,
        allow_dldc: bool,
    ) -> Tuple[EncodedWord, tuple, EncodedWord]:
        """:meth:`_choose` through the shared per-word decision memo.

        Both the single-word path and the pair path's per-side decisions
        come through here, so an ``encode_log`` of a word later seen in an
        undo+redo pair (or vice versa) is a hit.
        """
        memo = self._log_memo
        # A context-free alternative ignores the old word, so dropping
        # it from the key multiplies the hit rate.
        old_key = None if self._alternative.context_free else old_word
        key = (word, old_key, dirty_mask, allow_dldc)
        cached = memo.get(key)
        if cached is None:
            cached = self._choose(word, old_word, dirty_mask, allow_dldc)
            memo.put(key, cached)
        return cached

    def encode_log(self, word: int, context: LogWriteContext) -> EncodedWord:
        """Encode one word of log data, choosing the cheaper codec.

        The comparison uses total encoded size (payload + tags), matching
        the paper's size comparator; the encoding type flag is charged to
        both candidates so the choice is fair.
        """
        word = mask_word(word)
        chosen, hook, _alt = self._choose_cached(
            word, context.old_word, context.dirty_mask, context.allow_dldc
        )
        if self.decision_hook is not None:
            self.decision_hook(*hook)
        return chosen

    def encode_undo_redo_pair(
        self,
        undo_word: int,
        redo_word: int,
        dirty_mask: int,
    ) -> Tuple[EncodedWord, EncodedWord]:
        """Encode both sides of an undo+redo entry.

        At most one side may use DLDC (section IV-B): if both would pick
        DLDC, keep it for the side where it saves more and fall back to the
        alternative codec for the other.  Each side's decision goes through
        the per-word memo that ``encode_log`` shares.
        """
        undo_word = mask_word(undo_word)
        redo_word = mask_word(redo_word)
        undo_enc, undo_hook, undo_alt = self._choose_cached(
            undo_word, redo_word, dirty_mask, True
        )
        redo_enc, redo_hook, redo_alt = self._choose_cached(
            redo_word, undo_word, dirty_mask, True
        )
        if (
            undo_enc.method == "dldc"
            and redo_enc.method == "dldc"
            and not undo_enc.silent
            and not redo_enc.silent
        ):
            # Both sides picked DLDC: keep it where it saves more.  The
            # loser falls back to the alternative candidate the comparator
            # already costed (same old-word context), and its decision is
            # re-reported so traces match the bits actually written.
            undo_saving = undo_alt.total_bits - undo_enc.total_bits
            redo_saving = redo_alt.total_bits - redo_enc.total_bits
            if undo_saving > redo_saving:
                redo_hook = (
                    redo_word,
                    redo_alt.method,
                    redo_alt.total_bits,
                    "dldc",
                    redo_enc.total_bits,
                    redo_alt.silent,
                )
                redo_enc = redo_alt
            else:
                undo_hook = (
                    undo_word,
                    undo_alt.method,
                    undo_alt.total_bits,
                    "dldc",
                    undo_enc.total_bits,
                    undo_alt.silent,
                )
                undo_enc = undo_alt
        hook = self.decision_hook
        if hook is not None:
            hook(*undo_hook)
            hook(*redo_hook)
        return undo_enc, redo_enc

    def decode(self, encoded: EncodedWord, old_word: Optional[int] = None) -> int:
        """Dispatch on the encoding type flag (the method field here)."""
        if encoded.method == "dldc":
            return self._dldc.decode(encoded, old_word)
        return self._alternative.decode(encoded, old_word)
