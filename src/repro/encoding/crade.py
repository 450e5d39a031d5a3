"""CRADE: compression-ratio-aware data encoding (Xu et al., ICCD 2017).

CRADE is the paper's state-of-the-art general-purpose codec: it first
compresses each word with FPC, then expands the compressed bits with the
best-performing incomplete data mapping according to the compression ratio
(section IV-B).  In this model that means: pick the densest
:class:`ExpansionPolicy` whose cheap-level capacity fits the FPC output.
"""

from repro.encoding.fpc import FPC_TAG_BITS, FpcCodec


class CradeCodec(FpcCodec):
    """FPC + compression-ratio-aware expansion coding."""

    name = "crade"
    #: Sideband tags: the 3-bit FPC prefix plus a 2-bit expansion-policy
    #: tag so the read path knows how the cells were mapped (the paper's
    #: "encoding tag bit[s]" stored along with the data, section IV-B).
    tag_bits = FPC_TAG_BITS + 2

    def __init__(self, expansion_enabled: bool = True) -> None:
        super().__init__(expansion_enabled)
