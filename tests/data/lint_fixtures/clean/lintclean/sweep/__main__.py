"""Entry point that defers a module to the command that runs it."""

from ..sram import ArrayGeometry  # fine: the seam maps it to .geometry


def main(reference=False):
    if reference:
        from ..sram import SRAM  # fine: loaded only when this path runs

        return SRAM().read(0, 0)
    return ArrayGeometry.rows
