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
from repro.logging_hw.fwb import FwbLogger
from repro.logging_hw.morlog import MorLogLogger

DESIGN_NAMES = (
    "FWB-CRADE",
    "FWB-Unsafe",
    "FWB-SLDE",
    "MorLog-CRADE",
    "MorLog-SLDE",
    "MorLog-DP",
)

# Ablation-only baselines from the paper's section II-A taxonomy (Figure
# 1): undo-only logging (ATOM-style, forced data write-back at commit)
# and redo-only logging (ReDU/DHTM-style, DRAM-staged in-flight lines).
# Not part of the paper's evaluated set.
ABLATION_DESIGN_NAMES = ("Undo-CRADE", "Redo-CRADE")

# Extension designs: alternative persistence mechanisms evaluated as
# first-class citizens of the same harness (fault sweep, grid, traffic,
# figures).  Not part of the paper's evaluated set either.
EXTENSION_DESIGN_NAMES = ("InCLL-CRADE", "CoW-Page", "Ckpt-Undo")

_CRADE_DESIGNS = frozenset(
    ("FWB-CRADE", "FWB-Unsafe", "MorLog-CRADE")
    + ABLATION_DESIGN_NAMES
    + EXTENSION_DESIGN_NAMES
)
_SLDE_DESIGNS = frozenset(("FWB-SLDE", "MorLog-SLDE", "MorLog-DP"))


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


def _design_config(name: str, base: SystemConfig) -> SystemConfig:
    logging = base.logging
    encoding = base.encoding
    if name in _CRADE_DESIGNS:
        encoding = replace(encoding, log_codec="crade")
    elif name in _SLDE_DESIGNS:
        encoding = replace(encoding, log_codec="slde")
    else:
        raise ConfigError("unknown design %r" % name)
    logging = replace(logging, delay_persistence=(name == "MorLog-DP"))
    return base.with_changes(logging=logging, encoding=encoding)


def make_system(
    name: str, config: Optional[SystemConfig] = None, trace=None
) -> System:
    """Build a :class:`System` running design ``name``.

    ``trace`` takes a :class:`repro.trace.TraceConfig`; when enabled the
    built system carries a trace bus on every event-publishing layer.
    """
    base = config if config is not None else SystemConfig()
    cfg = _design_config(name, base)

    if name == "Undo-CRADE":
        from repro.logging_hw.undo_only import UndoOnlyLogger

        return System(cfg, UndoOnlyLogger, design_name=name, trace_config=trace)
    if name == "Redo-CRADE":
        from repro.logging_hw.redo_only import RedoOnlyLogger

        return System(cfg, RedoOnlyLogger, design_name=name, trace_config=trace)
    if name == "InCLL-CRADE":
        from repro.logging_hw.incll import InCllLogger

        return System(cfg, InCllLogger, design_name=name, trace_config=trace)
    if name == "CoW-Page":
        from repro.logging_hw.paging import PagingLogger

        return System(cfg, PagingLogger, design_name=name, trace_config=trace)
    if name == "Ckpt-Undo":
        from repro.logging_hw.checkpoint import CheckpointUndoLogger

        return System(cfg, CheckpointUndoLogger, design_name=name, trace_config=trace)

    if name.startswith("FWB"):
        if name == "FWB-Unsafe":
            # Buffer as large as undo+redo + redo combined, no age bound.
            entries = (
                cfg.logging.undo_redo_buffer_entries
                + cfg.logging.redo_buffer_entries
            )

            def factory(config, controller, region, stats):
                return FwbLogger(
                    config, controller, region, stats,
                    buffer_entries=entries, eager=False,
                )
        else:
            def factory(config, controller, region, stats):
                return FwbLogger(
                    config, controller, region, stats,
                    buffer_entries=config.logging.undo_redo_buffer_entries,
                    eager=True,
                )
    else:
        def factory(config, controller, region, stats):
            return MorLogLogger(config, controller, region, stats)

    return System(cfg, factory, design_name=name, trace_config=trace)
