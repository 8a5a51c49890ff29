"""RPR005 done right: fallback warnings go through the claim registry."""

import threading
import warnings

_WARNED = set()
_WARN_LOCK = threading.Lock()


def _claim_fallback_warning(tier):
    with _WARN_LOCK:
        if tier in _WARNED:
            return False
        _WARNED.add(tier)
        return True


def resolve(tier):
    if tier == "jit" and _claim_fallback_warning(tier):
        warnings.warn(
            "kernel 'jit' unavailable; falling back to 'flat'",
            RuntimeWarning)
    return "flat"
