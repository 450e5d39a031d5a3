"""Factory for the evaluated designs (paper section VI-A) and extensions.

==============  =============  ==========  =====================================
Design          Logger         Log codec   Notes
==============  =============  ==========  =====================================
FWB-CRADE       FWB, 16-entry  CRADE       the state-of-the-art baseline
FWB-Unsafe      FWB, 48-entry  CRADE       no eager eviction bound; shows that
                                           merely growing the buffer is not it
FWB-SLDE        FWB, 16-entry  SLDE        baseline logger + our codec
MorLog-CRADE    MorLog         CRADE       our logger + existing codec
MorLog-SLDE     MorLog         SLDE        our logger + our codec
MorLog-DP       MorLog         SLDE        + delay-persistence commit
==============  =============  ==========  =====================================

Beyond the paper's six, the comparative persistence-design testbed adds
ablation baselines and three extension designs, all built through the
same factory:

==============  ==================  =====================================
Design          Logger              Mechanism
==============  ==================  =====================================
Undo-CRADE      undo-only           ATOM-style forced write-back commit
Redo-CRADE      redo-only           ReDU/DHTM-style DRAM staging
InCLL-CRADE     incll               per-line embedded undo slots with an
                                    overflow log (Cohen et al.)
CoW-Page        paging              copy-on-write shadow pages, atomic
                                    mapping flip at commit
Ckpt-Undo       ckpt-undo           undo logging + periodic checkpoint
                                    with log compaction
==============  ==================  =====================================

:func:`available_designs` is the single registry every design-name
surface (CLI ``--designs``, sweeps, traffic harness) validates against.
"""

from dataclasses import replace
from typing import Optional, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.core.system import System
from repro.logging_hw.checkpoint import CheckpointUndoLogger
from repro.logging_hw.fwb import FwbLogger, FwbUnsafeLogger
from repro.logging_hw.incll import InCllLogger
from repro.logging_hw.morlog import MorLogLogger
from repro.logging_hw.paging import PagingLogger
from repro.logging_hw.redo_only import RedoOnlyLogger
from repro.logging_hw.undo_only import UndoOnlyLogger

# Design name -> (logger factory, log codec, delay persistence), one
# table per group, in presentation order.  The paper's six:
_PAPER_DESIGNS = {
    "FWB-CRADE": (FwbLogger, "crade", False),
    "FWB-Unsafe": (FwbUnsafeLogger, "crade", False),
    "FWB-SLDE": (FwbLogger, "slde", False),
    "MorLog-CRADE": (MorLogLogger, "crade", False),
    "MorLog-SLDE": (MorLogLogger, "slde", False),
    "MorLog-DP": (MorLogLogger, "slde", True),
}

# Ablation-only baselines from the paper's section II-A taxonomy (Figure
# 1): undo-only logging (ATOM-style, forced data write-back at commit)
# and redo-only logging (ReDU/DHTM-style, DRAM-staged in-flight lines).
# Not part of the paper's evaluated set.
_ABLATION_DESIGNS = {
    "Undo-CRADE": (UndoOnlyLogger, "crade", False),
    "Redo-CRADE": (RedoOnlyLogger, "crade", False),
}

# Extension designs: alternative persistence mechanisms evaluated as
# first-class citizens of the same harness (fault sweep, grid, traffic,
# figures).  Not part of the paper's evaluated set either.
_EXTENSION_DESIGNS = {
    "InCLL-CRADE": (InCllLogger, "crade", False),
    "CoW-Page": (PagingLogger, "crade", False),
    "Ckpt-Undo": (CheckpointUndoLogger, "crade", False),
}

DESIGN_NAMES = tuple(_PAPER_DESIGNS)
ABLATION_DESIGN_NAMES = tuple(_ABLATION_DESIGNS)
EXTENSION_DESIGN_NAMES = tuple(_EXTENSION_DESIGNS)
_DESIGNS = {**_PAPER_DESIGNS, **_ABLATION_DESIGNS, **_EXTENSION_DESIGNS}


def available_designs(
    include_ablation: bool = False, include_extensions: bool = False
) -> Tuple[str, ...]:
    """The canonical design-name tuple, in presentation order.

    The paper's six always come first; ablation baselines and the
    extension designs are opt-in so figure pipelines keyed to the
    paper's set stay stable.
    """
    names = DESIGN_NAMES
    if include_ablation:
        names = names + ABLATION_DESIGN_NAMES
    if include_extensions:
        names = names + EXTENSION_DESIGN_NAMES
    return names


def make_system(
    name: str, config: Optional[SystemConfig] = None, trace=None
) -> System:
    """Build a :class:`System` running design ``name``.

    ``trace`` takes a :class:`repro.trace.TraceConfig`; when enabled the
    built system carries a trace bus on every event-publishing layer.
    """
    if name not in _DESIGNS:
        raise ConfigError("unknown design %r" % name)
    factory, log_codec, delay_persistence = _DESIGNS[name]
    base = config if config is not None else SystemConfig()
    cfg = base.with_changes(
        logging=replace(base.logging, delay_persistence=delay_persistence),
        encoding=replace(base.encoding, log_codec=log_codec),
    )
    return System(cfg, factory, design_name=name, trace_config=trace)
