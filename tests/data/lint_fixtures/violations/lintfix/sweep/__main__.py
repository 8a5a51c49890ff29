"""Entry point that loads a deferred module at start-up."""

from ..sram import SRAM  # RPR001: resolves through the helper-bound seam


def main():
    return SRAM().read(0, 0)
