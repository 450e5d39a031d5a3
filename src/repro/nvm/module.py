"""NVM module controller with the SLDE codec (paper Figure 10).

The module sits between the memory bus and the NVMM array.  Its write path
encodes incoming data — with the configured general-purpose codec for
in-place data, and with SLDE (DLDC + alternative, least cost wins) for log
data — then programs cells under DCW and books bank/queue timing.  The read
path decodes stored words.

Write requests and their sizes:

- a *data line* write is one 64-byte request (8 words, each encoded
  independently, programmed in parallel);
- a *log entry* write is one request carrying the entry's metadata words
  plus its undo/redo data words;
- both count as one entry in the paper's "NVMM write traffic" metric.
"""

import enum
from typing import List, Optional, Sequence, Tuple

from repro.common.bitops import WORD_BYTES, WORD_MASK, WORDS_PER_LINE, mask_word
from repro.common.config import EncodingConfig, NVMConfig
from repro.common.stats import StatGroup
from repro.encoding import make_codec
from repro.encoding.base import EncodedWord, WordCodec
from repro.encoding.slde import LogWriteContext, SldeCodec
from repro.nvm.array import NvmArray, WriteCost
from repro.nvm.timing import BankTiming, WriteSchedule


class WriteKind(enum.Enum):
    """What a write request carries, for traffic breakdown stats."""

    DATA = "data"
    LOG = "log"
    COMMIT = "commit"


# Each kind's request, bit and energy counter names, keyed by the kind's
# value (``kind.value`` runs Python-level enum code on every request).
_KIND_COUNTERS = {
    kind._value_: tuple(
        "%s_%s" % (kind._value_, counter)
        for counter in ("writes", "bits", "energy_pj")
    )
    for kind in WriteKind
}


class NvmModule:
    """The NVMM module: codec + array + timing."""

    def __init__(
        self,
        nvm_config: NVMConfig,
        encoding_config: EncodingConfig,
        stats: Optional[StatGroup] = None,
        line_bytes: int = 64,
    ) -> None:
        self.stats = stats if stats is not None else StatGroup("nvm_module")
        self.array = NvmArray(nvm_config, self.stats)
        self.timing = BankTiming(nvm_config, self.stats, line_bytes)
        self.data_codec: WordCodec = make_codec(
            encoding_config.data_codec, encoding_config.expansion_enabled
        )
        self.log_codec: WordCodec = make_codec(
            encoding_config.log_codec, encoding_config.expansion_enabled
        )
        # The log codec when it is SLDE (undo+redo pairs, dirty contexts).
        self._slde: Optional[SldeCodec] = (
            self.log_codec if isinstance(self.log_codec, SldeCodec) else None
        )
        # Secure-NVMM model (section IV-D).  Encryption only changes what
        # the cells see (ciphertext entropy / dirtiness); the array keeps
        # plaintext as the logical ground truth, so decode verification is
        # disabled in secure modes.
        self._secure = encoding_config.secure_mode
        self._line_epoch: dict = {}
        # Fault-injection plan (installed by System.install_crash_plan):
        # fires "data-writeback" before any in-place line write programs
        # cells, so crash schedules can cut power at every write-ahead
        # boundary regardless of which layer issued the write.
        self.crash_plan = None
        # Trace bus (installed via set_tracer); observation only.
        self.tracer = None
        # Simulated timestamp of the in-flight log write, so the SLDE
        # decision hook (which fires mid-encode, with no clock in scope)
        # can stamp its events.
        self._trace_now = 0.0

    def set_tracer(self, bus) -> None:
        """Attach a trace bus; also taps the SLDE size comparator."""
        self.tracer = bus
        if isinstance(self.log_codec, SldeCodec):
            self.log_codec.decision_hook = self._emit_slde_decision

    def memo_stats(self) -> dict:
        """Codec-memo counters for both codecs, canonically ordered.

        ``{"data.<memo>": counters, "log.<memo>": counters}``; a codec
        without a memo (raw, Flip-N-Write) adds no key.  Surfaced by
        ``metrics_snapshot`` under its ``memo`` key so bench records
        capture cache effectiveness alongside throughput.  Hits, misses
        and evictions count the whole run; ``entries`` reads 0 once the
        run is drained (:meth:`clear_memos`).
        """
        stats = {}
        for prefix, codec in (("data", self.data_codec), ("log", self.log_codec)):
            for name, counters in codec.memo_stats().items():
                stats["%s.%s" % (prefix, name)] = counters
        return dict(sorted(stats.items()))

    def clear_memos(self) -> None:
        """Drop both codecs' memo entries.

        ``System.drain`` calls this when a run ends, so a finished
        system does not keep up to 8,192 entries per memo alive.
        Result-inert; the memos' counters stay.
        """
        self.data_codec.clear_memos()
        self.log_codec.clear_memos()

    def _emit_slde_decision(
        self, word, chosen, chosen_bits, rejected, rejected_bits, silent
    ) -> None:
        if self.tracer is None:
            return
        args = {"chosen": chosen, "chosen_bits": chosen_bits, "silent": silent}
        if rejected is not None:
            args["rejected"] = rejected
            args["rejected_bits"] = rejected_bits
        self.tracer.emit("slde-decision", "codec", self._trace_now, **args)

    @staticmethod
    def _cipher(addr: int, value: int, epoch: int = 0) -> int:
        """A stand-in block cipher: a 64-bit mix of (addr, value, epoch)."""
        x = (value ^ (addr * 0x9E3779B97F4A7C15) ^ (epoch * 0xBF58476D1CE4E5B9)) & ((1 << 64) - 1)
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & ((1 << 64) - 1)
        return x ^ (x >> 31)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def _post(
        self, addr: int, cost: WriteCost, now_ns: float, kind: WriteKind
    ) -> WriteSchedule:
        """Book a programmed request's timing and traffic counters."""
        if cost.silent:
            # Nothing was programmed: the request is elided entirely.
            schedule = WriteSchedule(accept_ns=now_ns, finish_ns=now_ns, stall_ns=0.0)
            self.stats.add("silent_requests")
        else:
            schedule = self.timing.write(addr, now_ns, cost.latency_ns)
            writes, bits, energy = _KIND_COUNTERS[kind._value_]
            self.stats.add(writes)
            self.stats.add(bits, cost.bits_written)
            self.stats.add(energy, cost.energy_pj)
        if self.tracer is not None:
            self.tracer.emit(
                "nvm-write",
                "nvm",
                now_ns,
                addr=addr,
                dur_ns=max(schedule.finish_ns - now_ns, 0.0),
                kind=kind.value,
                bits=cost.bits_written,
                energy_pj=cost.energy_pj,
                silent=cost.silent,
                stall_ns=schedule.stall_ns,
            )
        return schedule

    def write_data_line(
        self, addr: int, words: Sequence[int], now_ns: float
    ) -> WriteSchedule:
        """Write one in-place 64-byte cache line; returns its schedule."""
        if len(words) != WORDS_PER_LINE:
            raise ValueError("a data line write carries exactly 8 words")
        if self.crash_plan is not None:
            self.crash_plan.fire("data-writeback", addr=addr)
        epoch = 0
        if self._secure == "full":
            # Naive encryption: the whole line re-encrypts with a new
            # counter on every write — everything turns dirty.
            epoch = self._line_epoch.get(addr, 0) + 1
            self._line_epoch[addr] = epoch
        news = [mask_word(word) for word in words]
        if self._secure == "none":
            olds = None
            if not self.data_codec.context_free:
                # Only an old-word codec (Flip-N-Write) reads the line.
                olds = self.array.read_line(addr)
            encoded = self.data_codec.encode_line(news, olds)
        elif self._secure == "deuce":
            # DEUCE: only changed words are re-encrypted; the cipher
            # text of an unchanged word stays put (DCW-silent).
            encoded = self.data_codec.encode_line(
                [
                    self._cipher(addr + i * WORD_BYTES, new)
                    for i, new in enumerate(news)
                ]
            )
        else:
            encoded = self.data_codec.encode_line(
                [
                    self._cipher(addr + i * WORD_BYTES, new, epoch)
                    for i, new in enumerate(news)
                ]
            )
        return self._post(
            addr, self.array.write_words(addr, encoded, news), now_ns, WriteKind.DATA
        )

    def encode_log_words(
        self,
        meta_words: Sequence[int],
        undo: Optional[int] = None,
        redo: Optional[int] = None,
        dirty_mask: Optional[int] = None,
    ) -> Tuple[List[EncodedWord], List[int]]:
        """Encode a log entry's words (metadata first, then undo, then redo).

        Metadata words take the general codec's compute step past its memo
        (Figure 4 compresses log metadata with FPC; word 0 carries the
        sequence number and would never hit).  ``dirty_mask`` is the
        entry's per-byte dirty flag, None when the producer has no dirty
        information.  Under SLDE an undo+redo pair respects the
        never-both-DLDC rule via :meth:`SldeCodec.encode_undo_redo_pair`
        (each side's old word is the other, the mask 0xFF when None), and
        a lone word with a mask takes :meth:`SldeCodec.encode_log`.  Every
        other data word takes the log codec's plain ``encode``.
        """
        logicals: List[int] = [meta & WORD_MASK for meta in meta_words]
        encoded: List[EncodedWord] = list(map(self.data_codec.compute, logicals))
        if undo is None and redo is None:
            return encoded, logicals

        # The array keeps plaintext as the logical ground truth; secure
        # modes only change what the cells (and costs) see.
        if undo is not None:
            logicals.append(undo & WORD_MASK)
        if redo is not None:
            logicals.append(redo & WORD_MASK)
        secure = self._secure
        if secure != "none" and not (secure == "deuce" and dirty_mask == 0):
            # DEUCE keeps a completely clean entry clean (silent log
            # writes still vanish), but dirty data re-encrypt wholesale:
            # all bytes dirty, ciphertext incompressible.  Naive ("full")
            # encryption dirties everything unconditionally.
            if undo is not None:
                undo = self._cipher(0, undo, 1)
            if redo is not None:
                redo = self._cipher(0, redo, 1)
            if dirty_mask is not None:
                dirty_mask = 0xFF

        slde = self._slde
        if slde is not None and undo is not None and redo is not None:
            encoded.extend(slde.encode_undo_redo_pair(
                undo, redo, 0xFF if dirty_mask is None else dirty_mask
            ))
        elif slde is not None and dirty_mask is not None:
            # A lone word (a redo entry's): no undo word to pair with.
            context = LogWriteContext(old_word=None, dirty_mask=dirty_mask)
            encoded.append(slde.encode_log(redo if undo is None else undo, context))
        else:
            encode = self.log_codec.encode
            if undo is not None:
                encoded.append(encode(undo))
            if redo is not None:
                encoded.append(encode(redo))
        return encoded, logicals

    def write_log_entry(
        self,
        addr: int,
        meta_words: Sequence[int],
        now_ns: float,
        undo: Optional[int] = None,
        redo: Optional[int] = None,
        dirty_mask: Optional[int] = None,
        kind: WriteKind = WriteKind.LOG,
    ) -> WriteSchedule:
        """Write one log entry (or commit record) from ``addr`` on.

        Encodes the words (:meth:`encode_log_words`), programs them and
        posts the write; the schedule is all a log writer reads.
        """
        if self.tracer is not None:
            self._trace_now = now_ns
        encoded, logicals = self.encode_log_words(meta_words, undo, redo, dirty_mask)
        return self._post(
            addr, self.array.write_words(addr, encoded, logicals), now_ns, kind
        )

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def read_line(self, addr: int, now_ns: float) -> Tuple[Tuple[int, ...], float]:
        """Read a 64-byte line; returns (words, completion time)."""
        return self.array.read_line(addr), self.timing.read(addr, now_ns)

    def decode_word(self, addr: int, base_word: Optional[int] = None) -> int:
        """Decode one stored word through the codec (exercised by recovery).

        ``base_word`` supplies the clean bytes for DLDC-encoded log data.
        Raises if the decoded value disagrees with the slot's logical value,
        which would indicate a codec bug.  In secure modes the cells hold
        ciphertext while the logical value stays plaintext, so decode
        verification is skipped there.
        """
        slot = self.array.read_word(addr)
        if slot.encoded is None or self._secure != "none":
            return slot.logical
        enc = slot.encoded
        if enc.method == "dldc":
            decoded = (
                self.log_codec.decode(enc, base_word)
                if isinstance(self.log_codec, SldeCodec)
                else enc.payload
            )
        elif enc.method == self.data_codec.name:
            decoded = self.data_codec.decode(enc, base_word)
        else:
            decoded = self.log_codec.decode(enc, base_word)
        if decoded != slot.logical:
            raise ValueError(
                "decode mismatch at %#x: %#x != %#x" % (addr, decoded, slot.logical)
            )
        return decoded
