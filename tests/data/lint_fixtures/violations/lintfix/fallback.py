"""RPR005 violation: raw fallback warning outside the claim registry."""

import warnings


def resolve(tier):
    if tier == "jit":
        warnings.warn(  # line 8: raw backend/kernel fallback warning
            "kernel 'jit' unavailable; falling back to 'flat'",
            RuntimeWarning)
    return "flat"
