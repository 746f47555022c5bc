"""Outside-in span recorder.

The recorder times calls into each layer's *public* entry points by
wrapping them at runtime from the benchmark's own files, and restores
every original when recording stops.  No source under ``src/`` knows it
exists, and no ``_private`` name is ever wrapped, so the program's
internals can be restructured without breaking the benchmark.  An entry
point that no longer exists is listed in :attr:`SpanRecorder.missing`;
a layer none of whose entry points exists is reported absent instead of
crashing the run.

Each wrapped call is one span: name, start and end, kept in memory in
flat arrays.  Parents come from interval nesting after the run (the
simulator is synchronous, so a span's parent is the innermost span that
encloses it).  A layer's *self* time is its spans' durations minus the
part covered by their child spans; nothing queues in the synchronous
simulator, so self time is the only time a layer has.
"""

from __future__ import annotations

import importlib
import types
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

#: ``(layer, module, owner class or None for module functions, names)``;
#: ``PUBLIC`` wraps every public function the class itself defines.  GF
#: and StripeStore list their array kernels only: their scalar helpers
#: (``GF.mul``, ``StripeStore.view``, ...) cost less than a span does.
PUBLIC = None
ENTRY_POINTS = (
    ("sdds.client", "repro.sdds.client", "Client",
     ("insert", "update", "delete", "search",
      "insert_many", "update_many", "delete_many", "search_many", "scan")),
    ("sim.network", "repro.sim.network", "Network",
     ("send", "call", "multicast")),
    # sdds.client imports estimate_size by name, so both bindings are
    # wrapped; Message sizing looks it up in repro.sim.messages.
    ("sim.messages", "repro.sim.messages", None, ("estimate_size",)),
    ("sim.messages", "repro.sdds.client", None, ("estimate_size",)),
    ("core.data_bucket", "repro.core.data_bucket", "RSDataServer",
     ("receive",)),
    ("core.parity_bucket", "repro.core.parity_bucket", "ParityServer",
     ("receive",)),
    ("core.coordinator", "repro.core.coordinator", "RSCoordinator",
     ("receive",)),
    ("gf", "repro.gf.field", "GF",
     ("mul_symbols", "mul_matrix", "mul_arrays", "gf_matmul",
      "symbols_from_bytes", "bytes_from_symbols", "add_bytes",
      "stack_payloads", "scale_accumulate")),
    ("rs", "repro.rs.codec", "RSCodec", PUBLIC),
    ("core.stripe_store", "repro.core.stripe_store", "StripeStore",
     ("ensure", "scatter_xor", "release", "stacked", "row_bytes",
      "bulk_load")),
    ("core.recovery", "repro.core.recovery", "RecoveryManager", PUBLIC),
    ("store.wal", "repro.store.wal", "BucketLog", PUBLIC),
    ("store.wal", "repro.store.wal", None, ("encode_frame", "encode_blob")),
    ("store.simdisk", "repro.store.simdisk", "SimDisk", PUBLIC),
)
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))


def _public_functions(owner: type) -> list[str]:
    return [
        name for name, value in vars(owner).items()
        if not name.startswith("_")
        and isinstance(value, (types.FunctionType, staticmethod))
    ]


@dataclass
class Entry:
    layer: str
    owner: object
    name: str
    original: object
    #: the owner defines the name itself (else it is inherited)
    own: bool

    @property
    def label(self) -> str:
        return f"{self.owner.__name__.rsplit('.', 1)[-1]}.{self.name}"


@dataclass
class Analysis:
    """Per-label self/total seconds and calls, plus each span's parent."""

    self_s: dict[str, float]
    total_s: dict[str, float]
    calls: dict[str, int]
    top_level_s: float
    parents: np.ndarray


class SpanRecorder:
    """Wraps the layers' public entry points while :meth:`recording`."""

    def __init__(self):
        self.missing: list[str] = []
        self.entries: list[Entry] = []
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self._resolve()
        self.reset()

    def _resolve(self) -> None:
        """Find every entry point once; remember the ones that are gone."""
        for layer, module_name, owner_name, names in ENTRY_POINTS:
            where = f"{module_name}.{owner_name}" if owner_name else module_name
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(where)
                continue
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
                if not isinstance(owner, type):
                    self.missing.append(where)
                    continue
            for name in (_public_functions(owner) if names is PUBLIC
                         else names):
                if not hasattr(owner, name):
                    self.missing.append(f"{where}.{name}")
                    continue
                own = name in vars(owner)
                original = vars(owner)[name] if own else getattr(owner, name)
                self.entries.append(Entry(layer, owner, name, original, own))
        self.layer_of = {e.label: e.layer for e in self.entries}

    @property
    def absent_layers(self) -> list[str]:
        present = {e.layer for e in self.entries}
        return [layer for layer in LAYERS if layer not in present]

    def label_layer(self, label: str) -> str:
        """Layer of a span label (``Owner.receive:<kind>`` included)."""
        return self.layer_of[label.split(":", 1)[0]]

    def _label_id(self, label: str) -> int:
        found = self._label_ids.get(label)
        if found is None:
            found = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return found

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop every span and counter."""
        self.starts = array("d")
        self.ends = array("d")
        self.ids = array("i")
        #: Δ-records parity buckets report applied, and the Δ messages
        self.parity_deltas = 0
        self.parity_delta_msgs = 0
        self.disk_bytes_written = 0
        self.catchups_ok = 0

    @contextmanager
    def recording(self):
        """Wrap every entry point for the duration of the block."""
        installed = []
        try:
            for entry in self.entries:
                original = entry.original
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(
                        self._wrap(entry, original.__func__))
                else:
                    wrapped = self._wrap(entry, original)
                setattr(entry.owner, entry.name, wrapped)
                installed.append(entry)
            yield self
        finally:
            for entry in reversed(installed):
                if entry.own:
                    setattr(entry.owner, entry.name, entry.original)
                else:
                    delattr(entry.owner, entry.name)

    def _wrap(self, entry: Entry, fn):
        start_append = self.starts.append
        end_append = self.ends.append
        id_append = self.ids.append
        label = entry.label
        observe = self._observer(label)

        if entry.name == "receive":
            # split the receiving layer's time by message kind
            kind_ids: dict[str, int] = {}
            label_id = self._label_id

            def traced_receive(node, message, *args, **kwargs):
                start = perf_counter()
                try:
                    result = fn(node, message, *args, **kwargs)
                finally:
                    end_append(perf_counter())
                    start_append(start)
                    kind = message.kind
                    found = kind_ids.get(kind)
                    if found is None:
                        found = kind_ids[kind] = label_id(f"{label}:{kind}")
                    id_append(found)
                if observe is not None:
                    observe((node, message), kwargs, result)
                return result

            return traced_receive

        ident = self._label_id(label)
        if observe is not None:
            def traced_observed(*args, **kwargs):
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end_append(perf_counter())
                    start_append(start)
                    id_append(ident)
                observe(args, kwargs, result)
                return result

            return traced_observed

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end_append(perf_counter())
                start_append(start)
                id_append(ident)

        return traced

    def _observer(self, label: str):
        """Count hooks at the boundaries where the work happens."""
        if label == "ParityServer.receive":
            def parity(args, kwargs, result):
                if args[1].kind in ("parity.update", "parity.batch"):
                    self.parity_delta_msgs += 1
                    if isinstance(result, dict) and result.get("status") == "applied":
                        self.parity_deltas += result.get("applied", 1)
            return parity
        if label in ("SimDisk.append", "SimDisk.write_file"):
            def written(args, kwargs, result):
                data = args[2] if len(args) > 2 else kwargs["data"]
                self.disk_bytes_written += len(data)
            return written
        if label == "RecoveryManager.catch_up_data":
            def caught_up(args, kwargs, result):
                self.catchups_ok += bool(result)
            return caught_up
        return None

    # ------------------------------------------------------------------
    def analyze(self) -> Analysis:
        """Self time per label: each span's duration minus the durations
        of the spans directly nested in it."""
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        ids = np.frombuffer(self.ids, dtype=np.int32)
        durations = ends - starts
        stack: list[int] = []
        start_list, end_list = starts.tolist(), ends.tolist()
        parent_list = [-1] * len(start_list)
        for span in np.lexsort((-ends, starts)).tolist():
            start = start_list[span]
            while stack and end_list[stack[-1]] <= start:
                stack.pop()
            if stack:
                parent_list[span] = stack[-1]
            stack.append(span)
        parents = np.array(parent_list, dtype=np.int64)
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=durations[nested],
                              minlength=len(starts))
        own = durations - covered
        count = len(self.labels)
        return Analysis(
            self_s=dict(zip(self.labels, np.bincount(
                ids, weights=own, minlength=count).tolist())),
            total_s=dict(zip(self.labels, np.bincount(
                ids, weights=durations, minlength=count).tolist())),
            calls=dict(zip(self.labels, np.bincount(
                ids, minlength=count).tolist())),
            top_level_s=float(durations[~nested].sum()),
            parents=parents,
        )

    def write(self, path: Path, parents: np.ndarray) -> None:
        """Write the spans (name, start, end, parent) and the names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            name=np.frombuffer(self.ids, dtype=np.int32),
            parent=parents,
            names=np.array(self.labels),
            absent_layers=np.array(self.absent_layers, dtype=str),
            missing_entry_points=np.array(self.missing, dtype=str),
        )
