"""Per-cell TLC program cost with data-comparison write (DCW).

DCW (Yang et al., ISCAS 2007) reads the old cell contents and programs only
the cells whose target level differs.  Programming a TLC cell to level L
costs the Table III latency/energy for L; the cells of one write program in
parallel, so write latency is the *maximum* per-cell latency while energy
is the *sum*.

Cell images are packed ints: cell *i* at bits 3i..3i+2 (see
:func:`repro.encoding.expansion.pack_payload`).
"""

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.common.bitops import join_cells
from repro.common.config import NVMConfig
from repro.encoding.expansion import CELLS_PER_WORD

# Bit 3i set for every cell i of a word slot (data cells and tag cells).
_CELL_LOW_BITS = int("001" * CELLS_PER_WORD, 2)


@dataclass(frozen=True)
class CellProgramCost:
    """Cost of programming one group of cells under DCW."""

    cells_programmed: int
    latency_ns: float
    energy_pj: float


def cost_tables(config: NVMConfig):
    """Per-level latency/energy lookup lists, cached on the config object."""
    tables = getattr(config, "_cost_tables_cache", None)
    if tables is None:
        latency = [config.write_latency_ns(level) for level in range(8)]
        energy = [config.write_energy_pj(level) for level in range(8)]
        tables = (latency, energy)
        object.__setattr__(config, "_cost_tables_cache", tables)
    return tables


def dcw_cost(old: int, new: int, latency_table, energy_table) -> Tuple[int, float, float]:
    """DCW cost of moving a word slot's packed cells ``old`` to ``new``.

    Returns ``(cells_programmed, latency_ns, energy_pj)``.  XORs the two
    images and charges only the changed cells, in ascending cell order,
    so energy sums in the same floating-point order as a cell-by-cell
    loop.  (The walk shifts past unchanged cells rather than jumping to
    the next changed one: on a miss most cells change, and the shift is
    the cheaper step.)
    """
    diff = old ^ new
    changed = (diff | diff >> 1 | diff >> 2) & _CELL_LOW_BITS
    programmed = bin(changed).count("1")
    latency = 0.0
    energy = 0.0
    while changed:
        if changed & 1:
            level = new & 7
            cell_latency = latency_table[level]
            if cell_latency > latency:
                latency = cell_latency
            energy += energy_table[level]
        changed >>= 3
        new >>= 3
    return programmed, latency, energy


def pristine_cost_table(config: NVMConfig):
    """DCW cost of programming three pristine cells, per 9-bit image.

    A never-programmed word slot holds every cell at level 0, so moving
    it to ``new`` programs exactly the cells of ``new`` that are not 0.
    Entry ``c`` covers the three cells of ``c`` (cell *j* at bits
    3j..3j+2): ``(cells_programmed, latency_ns, e0, e1, e2)``, where
    ``ej`` is cell *j*'s energy, or ``0.0`` when it stays at level 0.
    Adding ``e0 + e1 + e2`` chunk by chunk is then the ascending
    cell-by-cell sum of :func:`dcw_cost`: adding ``0.0`` to a float
    leaves it exactly as it was.  Cached on the config object.
    """
    table = getattr(config, "_pristine_cost_cache", None)
    if table is None:
        latency_table, energy_table = cost_tables(config)
        # (programmed, latency, energy) of one pristine cell, per level.
        cell = [(0, 0.0, 0.0)] + [
            (1, latency_table[level], energy_table[level]) for level in range(1, 8)
        ]
        table = tuple(
            (n0 + n1 + n2, max(t0, t1, t2), e0, e1, e2)
            for n2, t2, e2 in cell
            for n1, t1, e1 in cell
            for n0, t0, e0 in cell
        )
        object.__setattr__(config, "_pristine_cost_cache", table)
    return table


def program_cost(
    old_levels: Sequence[int],
    new_levels: Sequence[int],
    config: NVMConfig,
) -> CellProgramCost:
    """DCW cost of moving cells from ``old_levels`` to ``new_levels``.

    The sequences must be equal length, at most one word slot's
    :data:`~repro.encoding.expansion.CELLS_PER_WORD` cells; a *silent*
    write (identical levels) programs zero cells and costs nothing.
    """
    if len(old_levels) != len(new_levels):
        raise ValueError("old and new cell images differ in length")
    if len(new_levels) > CELLS_PER_WORD:
        raise ValueError("cell images wider than a word slot")
    latency_table, energy_table = cost_tables(config)
    return CellProgramCost(*dcw_cost(
        join_cells(old_levels, 3), join_cells(new_levels, 3),
        latency_table, energy_table,
    ))
