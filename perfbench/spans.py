"""In-memory span recorder for the traced run.

A span is (name, start, end, parent index).  The benchmark opens one
span around every operation it runs, and `Tracer.patched()` wraps the
layer functions that harness, nist and vectors call internally (the
bitsliced engine, the packers and the scalar block functions), so a
caller's self time is its duration minus the time its child spans
cover.  The recorder keeps a single parent stack: use it from one
thread only.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

from egc128 import bitslice, cipher


def _block_count(args) -> int:
    """Blocks evaluated by one BitslicedCipher.encrypt(self, L, R, ...) call."""
    return 64 * args[1].shape[1]


#: (owner, attribute, span name, blocks evaluated per call or None).
#: Functions are also rebound in every egc128 module that imported them
#: by name, so calls through those bindings are seen as well.
TRACED = (
    (bitslice.BitslicedCipher, "encrypt", "bitslice.encrypt", _block_count),
    (bitslice.BitslicedCipher, "f_core", "bitslice.f_core", None),
    (bitslice, "pack_words", "bitslice.pack_words", None),
    (bitslice, "unpack_words", "bitslice.unpack_words", None),
    (bitslice, "random_lanes", "bitslice.random_lanes", None),
    (cipher, "derive_round_keys", "cipher.derive_round_keys", None),
    (cipher.Cipher, "encrypt_block", "cipher.encrypt_block", lambda args: 1),
    (cipher.Cipher, "decrypt_block", "cipher.decrypt_block", lambda args: 1),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.block_evals = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (name, start, perf_counter(), parent)
            self._stack.pop()

    def _wrap(self, name, fn, blocks):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if blocks is not None:
                self.block_evals += blocks(args)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self):
        """Route the TRACED layer functions through span wrappers."""
        restore = []
        try:
            for owner, attr, name, blocks in TRACED:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, blocks)
                targets = [owner] + [
                    mod for modname, mod in list(sys.modules.items())
                    if modname.startswith("egc128.") and mod is not owner
                    and getattr(mod, attr, None) is original
                ]
                for target in targets:
                    restore.append((target, attr, original))
                    setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original in reversed(restore):
                setattr(target, attr, original)

    def totals(self, first: int = 0) -> dict[str, list]:
        """{name: [calls, total_s, self_s]} over spans[first:]."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans[first:]:
            if parent >= first:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for idx in range(first, len(self.spans)):
            name, start, end, _ = self.spans[idx]
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[idx]
        return out

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
