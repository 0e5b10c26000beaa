"""In-memory span recorder and the wrappers that feed it.

A traced run replaces each public function of the program with a wrapper
that records a span (name, start, end, parent span, op id, and an optional
count) and then calls the original.  The wrappers are installed only
around traced ops and removed afterwards, so untraced ops run the
unmodified program.

Several modules bind ``keygen``, ``image_enc``, ``image_dec``,
``extract_ehd``, ``read_pgm`` and ``write_pgm`` at import time, so each
name is wrapped in every module that calls it, not in the module that
defines it.  Functions called as ``module.name`` are wrapped on their own
module, and methods on their class (classmethods included).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from mipp import (cli, cloud_node, evaluation, feature_crypto, group_crypto, kmc_node,
                  protocol_sim)


def read_io_counters() -> tuple[int, int]:
    """(rchar, wchar) of this process from /proc/self/io."""
    with open("/proc/self/io", "rb") as fh:
        fields = dict(line.split(b":") for line in fh.read().splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"])


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "count", "aux")

    def __init__(self, name: str, parent: int | None, op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.count = 0
        self.aux = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of traced ops; ``ops[i]`` is the phase of op ``i``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.ops: list[str] = []
        self._stack: list[int] = []
        self._patches = _patch_table(self)
        # reading /proc/self/io itself adds to rchar; measure that once
        before = read_io_counters()
        after = read_io_counters()
        self._io_read_cost = after[0] - before[0]

    def call(self, name, fn, args, kwargs, count=None, io=None):
        index = len(self.spans)
        span = Span(name, self._stack[-1] if self._stack else None, len(self.ops) - 1)
        self.spans.append(span)
        self._stack.append(index)
        io_before = read_io_counters() if io else None
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if io is not None:
            io_after = read_io_counters()
            slot = 0 if io == "read" else 1
            span.count = io_after[slot] - io_before[slot]
            if io == "read":
                span.count -= self._io_read_cost
        elif count is not None:
            counted = count(args, result)
            if isinstance(counted, tuple):
                span.count, span.aux = counted
            else:
                span.count = counted
        return result

    def op(self, phase: str, name: str, fn, *args, **kwargs):
        """Run one top-level op under the wrappers and record it."""
        self.ops.append(phase)
        with self.installed():
            return self.call(name, fn, args, kwargs)

    @contextmanager
    def installed(self):
        done = []
        try:
            for owner, attr, replacement in self._patches:
                done.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, original in reversed(done):
                setattr(owner, attr, original)

    def totals(self, phase: str) -> tuple[int, dict[str, dict[str, float]]]:
        """Number of ops of ``phase`` and per-span-name sums over them."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out: dict[str, dict[str, float]] = {}
        for span, covered in zip(self.spans, child_time):
            if self.ops[span.op] != phase:
                continue
            row = out.setdefault(
                span.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "count": 0, "aux": 0}
            )
            row["calls"] += 1
            row["ms"] += span.duration * 1e3
            row["self_ms"] += (span.duration - covered) * 1e3
            row["count"] += span.count
            row["aux"] += span.aux
        return self.ops.count(phase), out

    def called_layers(self) -> set[str]:
        """Layers whose wrapped functions ran, not counting the op spans."""
        return {span.name.split(".")[0] for span in self.spans if span.parent is not None}

    def write(self, path: Path) -> None:
        lines = ["index\tname\tparent\top\tphase\tstart_s\tend_s\tcount"]
        for i, s in enumerate(self.spans):
            parent = "" if s.parent is None else str(s.parent)
            lines.append(
                f"{i}\t{s.name}\t{parent}\t{s.op}\t{self.ops[s.op]}\t"
                f"{s.start:.9f}\t{s.end:.9f}\t{s.count}"
            )
        path.write_text("\n".join(lines) + "\n")


def _wrap(tracer: Tracer, name: str, fn, count=None, io=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count, io)

    return wrapper


def _patch_table(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every name the traced run replaces."""
    patches = []

    def function(owner, attr, name, count=None):
        patches.append((owner, attr, _wrap(tracer, name, owner.__dict__[attr], count)))

    def method(cls, attr, name, count=None, io=None):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(_wrap(tracer, name, original.__func__, count, io))
        else:
            wrapped = _wrap(tracer, name, original, count, io)
        patches.append((cls, attr, wrapped))

    function(group_crypto, "encrypt_vector", "group_crypto.encrypt_vector")
    function(group_crypto, "aggregate_and_recover", "group_crypto.aggregate_and_recover")
    function(feature_crypto, "encrypt_feature_pair", "feature_crypto.encrypt_feature_pair")
    function(feature_crypto, "recover_sums", "feature_crypto.recover_sums")
    function(feature_crypto, "feature_to_text", "feature_crypto.text")
    function(feature_crypto, "feature_from_text", "feature_crypto.text")
    function(protocol_sim, "encode_message", "protocol_sim.encode_message",
             lambda a, r: len(r))
    function(protocol_sim, "decode_message", "protocol_sim.decode_message")
    for module in (protocol_sim, cli):
        function(module, "keygen", "image_cipher.keygen", lambda a, r: len(r))
        function(module, "extract_ehd", "ehd_features.extract_ehd",
                 lambda a, r: np.asarray(a[0]).size)
    for module in (protocol_sim, cli, kmc_node):
        function(module, "image_enc", "image_cipher.xor")
        function(module, "image_dec", "image_cipher.xor")
    # ``mipp ingest`` reads the corpus through evaluation.load_corpus
    for module in (cli, cloud_node, evaluation):
        function(module, "read_pgm", "image_cipher.pgm", lambda a, r: r[0].nbytes)
        function(module, "write_pgm", "image_cipher.pgm", lambda a, r: a[1].nbytes)

    cloud = cloud_node.CloudNode
    # every owner authorises the benchmark's one user, so every index row
    # is ranked; count = rows ranked, aux = results returned
    method(cloud, "retrieve_top_h", "cloud_node.retrieve_top_h",
           lambda a, r: (len(a[0].index), len(r)))
    method(cloud, "register_owner", "cloud_node.register_owner")
    method(cloud, "apply_update", "cloud_node.apply_update")
    method(cloud, "load_store", "cloud_node.load_store", io="read")
    method(cloud, "save_store", "cloud_node.save_store", io="write")
    kmc = kmc_node.KmcNode
    method(kmc, "reencrypt_results", "kmc_node.reencrypt_results",
           lambda a, r: len(a[1]))
    method(kmc, "load_vault", "kmc_node.vault")
    method(kmc, "save_vault", "kmc_node.vault")
    return patches
