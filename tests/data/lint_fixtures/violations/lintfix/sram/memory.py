"""The behavioural memory: only the reference path runs it."""


class SRAM:
    def read(self, row, column):
        return 0
