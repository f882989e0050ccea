"""Span tracing around the oracle's layers, installed from outside the package.

`install()` replaces each hooked callable with a wrapper that records a span:
the wall time it ran, minus the time its nested hooked calls ran, is the
layer's self time. Spans are kept in memory as per-layer totals. Counters
are taken at the same boundaries, so ratios are measured where the work
happens.

Hooks sit on public callables, plus the two phases that have none:
`SparseMatrix._component_split` (block split) and `koszul._dense_rank_mod`
(elimination). A hooked name that no longer exists makes every metric of
its layer read "absent" instead of 0.
"""

from __future__ import annotations

import functools
import time
import weakref

from kpq import cli as kcli
from kpq import koszul as kkoszul
from kpq import ranges as kranges
from kpq import witness as kwitness
from summary import ABSENT, ratio

# layer -> (owner, attribute) pairs whose spans make up the layer
HOOKS = {
    "koszul.basis": [(kkoszul, "wedge_basis"),
                     (kkoszul.TruncatedAlgebra, "degree_basis"),
                     (kkoszul.ReducedACMAlgebra, "degree_basis")],
    "koszul.assembly": [(kkoszul.KoszulComplex, "differential_matrix")],
    "koszul.split": [(kkoszul.SparseMatrix, "_component_split")],
    "koszul.elim": [(kkoszul, "_dense_rank_mod")],
    "koszul.chain": [(kkoszul.SparseMatrix, "compose_is_zero"),
                     (kkoszul.SparseMatrix, "apply")],
    "koszul.solve": [(kkoszul.SparseMatrix, "solve_consistent")],
    # the query front doors: their self time is bookkeeping around the layers
    "koszul.rank": [(kkoszul.KoszulComplex, "kpq_dim")],
    "koszul.element": [(kkoszul.KoszulComplex, "is_cycle"),
                       (kkoszul.KoszulComplex, "is_boundary")],
    "witness.build": [(kwitness, "build_witness")],
    "witness.certificate": [(kwitness, "verify_certificate")],
    "ranges.report": [(kranges, "veronese_range_report"),
                      (kranges, "acm_range"),
                      (kranges, "acm_range_report")],
    "cli.self": [(kcli, "main")],
}


class Recorder:
    """Per-layer self time and call counts, plus the layer-specific counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = {layer: 0.0 for layer in HOOKS}
        self.calls = {layer: 0 for layer in HOOKS}
        self.absent: set[str] = set()
        self.in_window = False
        self.window_self_s = 0.0
        self._stack: list[list[float]] = []  # per open span: [child seconds]
        self.elim_block_cells = 0
        self.elim_max_block_cells = 0
        self.assembly_nnz = 0
        self.assembly_keys: set = set()
        self.split_blocks = 0
        self._split_seen: weakref.WeakSet = weakref.WeakSet()
        self.rank_requests = 0
        self.rank_hits = 0

    def span(self, layer: str, fn, after=None):
        """Wrap `fn` so each call records a `layer` span; `after` takes the counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self._stack.pop()
                own = elapsed - children[0]
                self.self_s[layer] += own
                self.calls[layer] += 1
                if self.in_window:
                    self.window_self_s += own
                if self._stack:
                    self._stack[-1][0] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- counters taken at the hooked boundaries --------------------------------

    def _after_elim(self, args, kwargs, result):
        block = args[0]
        cells = int(block.shape[0]) * int(block.shape[1])
        self.elim_block_cells += cells
        self.elim_max_block_cells = max(self.elim_max_block_cells, cells)

    def _after_assembly(self, args, kwargs, result):
        cx, p, k = args[:3]
        field = args[3] if len(args) > 3 else kwargs.get("field")
        modulus = (field or cx.field).modulus
        self.assembly_nnz += result.nnz
        self.assembly_keys.add((cx.algebra.key, p, k, modulus))

    def _after_split(self, args, kwargs, result):
        matrix = args[0]
        if matrix not in self._split_seen:  # later calls return the cached split
            self._split_seen.add(matrix)
            self.split_blocks += len(result)

    def _rank_request(self, fn):
        """Count kpq_dim calls, and those that assembled no differential."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.calls["koszul.assembly"]
            result = fn(*args, **kwargs)
            self.rank_requests += 1
            if self.calls["koszul.assembly"] == before:
                self.rank_hits += 1
            return result

        return wrapper

    def install(self) -> list:
        """Replace every hooked callable; returns the undo list for `uninstall`."""
        after = {"koszul.elim": self._after_elim,
                 "koszul.assembly": self._after_assembly,
                 "koszul.split": self._after_split}
        undo = []
        for layer, hooks in HOOKS.items():
            for owner, attr in hooks:
                original = vars(owner).get(attr)
                if original is None:
                    self.absent.add(layer)
                    continue
                wrapped = self.span(layer, original, after.get(layer))
                if layer == "koszul.rank":
                    wrapped = self._rank_request(wrapped)
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, original))
        return undo

    @staticmethod
    def uninstall(undo: list) -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def metrics(self) -> dict:
        """The per-layer metrics by name; a layer with a missing hook reads ABSENT."""

        by_layer = {
            "koszul.elim": {"s": self.self_s["koszul.elim"],
                            "calls": self.calls["koszul.elim"],
                            "block_cells": self.elim_block_cells,
                            "max_block_cells": self.elim_max_block_cells},
            "koszul.assembly": {"s": self.self_s["koszul.assembly"],
                                "calls": self.calls["koszul.assembly"],
                                "nnz": self.assembly_nnz,
                                "useful_ratio": ratio(len(self.assembly_keys),
                                                      self.calls["koszul.assembly"])},
            "koszul.split": {"s": self.self_s["koszul.split"], "blocks": self.split_blocks},
            "koszul.chain": {"s": self.self_s["koszul.chain"],
                             "calls": self.calls["koszul.chain"]},
            "koszul.solve": {"s": self.self_s["koszul.solve"]},
            "koszul.rank": {"cache_hit_ratio": ratio(self.rank_hits, self.rank_requests)},
            "koszul.basis": {"s": self.self_s["koszul.basis"]},
            "witness.build": {"s": self.self_s["witness.build"]},
            "witness.certificate": {"s": self.self_s["witness.certificate"]},
            "ranges.report": {"s": self.self_s["ranges.report"]},
            "cli.self": {"s": self.self_s["cli.self"]},
        }
        out = {}
        for layer, values in by_layer.items():
            for field, value in values.items():
                out[f"{layer}.{field}"] = ABSENT if layer in self.absent else value
        return out
