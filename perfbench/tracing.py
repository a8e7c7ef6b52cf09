"""Spans and counts for the traced run.

``Tracer.install`` replaces each function in ``TRACED`` wherever it is bound
(the package namespace and every grwlab module that imports it, or the class
for a constructor) and ``numpy.fft.fft`` / ``numpy.fft.ifft`` with wrappers.
Each wrapper appends one span to in-memory arrays: name, parent, op, start,
end and whether it raised.  Nothing is written until ``save`` at the end of
the run.  Self time is a span's duration minus the durations of its direct
children; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
import warnings
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from grwlab.errors import BoundaryContamination

# (metric prefix, module, attribute); "Class.__init__" wraps a constructor.
# Each group names the end-to-end metric it should move, on which workload.
TRACED = (
    # chain_ensemble op_p50_s and work_per_s; no work on the other workloads
    ("scenarios.measurement_chain", "grwlab.scenarios", "measurement_chain"),
    ("collapse.RngStream.init", "grwlab.collapse", "RngStream.__init__"),
    ("collapse.sample_hit_time", "grwlab.collapse", "sample_hit_time"),
    ("collapse.apply_branch_hit", "grwlab.collapse", "apply_branch_hit"),
    ("state.Branch.init", "grwlab.state", "Branch.__init__"),
    ("state.BranchedState.init", "grwlab.state", "BranchedState.__init__"),
    # grid_trajectory work_per_s; no change predicted on energy_ledger
    ("collapse.run_grw", "grwlab.collapse", "run_grw"),
    ("collapse.sample_center", "grwlab.collapse", "sample_center"),
    ("propagator.evolve", "grwlab.propagator", "evolve"),
    # energy_ledger work_per_s and peak_rss_mib, partly grid_trajectory work_per_s
    ("collapse.apply_hit", "grwlab.collapse", "apply_hit"),
    ("ontology.energy_expectation", "grwlab.ontology", "energy_expectation"),
    ("ontology.energy_gain_per_hit", "grwlab.ontology", "energy_gain_per_hit"),
    ("state.WaveFunction1D.init", "grwlab.state", "WaveFunction1D.__init__"),
    ("state.Grid1D.init", "grwlab.state", "Grid1D.__init__"),
    # scenario_suite op_p50_s, and chain_ensemble by about 4% (its write step)
    ("cli.load_config", "grwlab.cli", "load_config"),
    ("cli.resolve_config", "grwlab.cli", "resolve_config"),
    ("cli.dispatch", "grwlab.cli", "dispatch"),
    ("cli.write_outputs", "grwlab.cli", "write_outputs"),
    ("scenarios.marble_in_box", "grwlab.scenarios", "marble_in_box"),
    ("scenarios.billiard_collision", "grwlab.scenarios", "billiard_collision"),
    ("scenarios.wallace_displacement", "grwlab.scenarios", "wallace_displacement"),
    ("scenarios.hegerfeldt_regrowth", "grwlab.scenarios", "hegerfeldt_regrowth"),
    ("scenarios.kernel_dilemma", "grwlab.scenarios", "kernel_dilemma"),
    ("propagator.evolve_free", "grwlab.propagator", "evolve_free"),
    ("ontology.matter_density", "grwlab.ontology", "matter_density"),
    ("ontology.isomorphism_score", "grwlab.ontology", "isomorphism_score"),
    ("ontology.tail_mass", "grwlab.ontology", "tail_mass"),
    ("ontology.fuzzy_link", "grwlab.ontology", "fuzzy_link"),
)
FUNCTION_FIELDS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"), ("errors", "count"))
# Kernel counts (fft.*) should move with any kernel-spectrum cache or
# batching; they repeat exactly per seed.
COUNTS = (
    ("collapse.hits", "count"),
    ("propagator.strang_steps", "count"),
    ("propagator.boundary_warnings", "count"),
    ("cli.write_outputs.bytes", "B"),
    ("fft.calls", "count"),
    ("fft.points", "count"),
    ("fft.flops_computed", "flop"),
    ("fft.bytes_computed", "B"),
    ("fft.total_s", "s"),
    ("trace.spans_per_op", "count"),
    ("trace.op_p50_s", "s"),
    ("trace.overhead", "ratio"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{name}.{field}": unit for name, _, _ in TRACED for field, unit in FUNCTION_FIELDS}
    units.update(COUNTS)
    return units


def _count_strang_steps(counts, bind, args, kwargs, result):
    call = bind(*args, **kwargs).arguments
    if call["potential"] is not None:
        counts["propagator.strang_steps"] += call["n_steps"]


def _count_written_bytes(counts, bind, args, kwargs, result):
    counts["cli.write_outputs.bytes"] += sum(path.stat().st_size for path in result)


def _count_fft(counts, bind, args, kwargs, result):
    # computed from array sizes: 5 N log2 N flops per length-N transform, and
    # the input plus output bytes; cache misses are not counted
    n = result.shape[-1]
    counts["fft.points"] += result.size
    counts["fft.flops_computed"] += 5.0 * n * math.log2(n) * (result.size // n)
    counts["fft.bytes_computed"] += np.asarray(args[0]).nbytes + result.nbytes


COUNT_HOOKS = {
    "propagator.evolve": _count_strang_steps,
    "cli.write_outputs": _count_written_bytes,
    "fft": _count_fft,
}


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TRACED] + ["fft", "op"]
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.failed.append(0)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        hook = COUNT_HOOKS.get(name)
        bind = inspect.signature(fn).bind if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[index] = 1
                raise
            finally:
                self._close(index)
            if hook is not None:
                hook(self.counts[self.current_op], bind, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def install(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "grwlab" or name.startswith("grwlab.")
        ]
        for name, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(name, cls.__dict__[method]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for attr in ("fft", "ifft"):
            self._patch(np.fft, attr, self._wrap("fft", getattr(np.fft, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    @contextlib.contextmanager
    def op_span(self, op: int):
        """Span around one op; also counts BoundaryContamination warnings."""
        self.current_op = op
        index = self._open(self.names.index("op"))
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", BoundaryContamination)
                yield
        finally:
            self._close(index)
            self.counts[op]["propagator.boundary_warnings"] += sum(
                issubclass(w.category, BoundaryContamination) for w in caught
            )
            self.current_op = -1

    def _arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "failed": np.array(self.failed, dtype=np.int8),
        }

    def metrics(self, traced_op_p50: float, untraced_op_p50: float) -> dict[str, float]:
        """Per-layer metrics over the traced ops 0..n-1.

        Calls and counts come from op 0, whose input is fixed by the seed, so
        they repeat exactly; times are medians over ops of each op's total.
        """
        a = self._arrays()
        in_op = a["op"] >= 0
        n_ops = int(a["op"].max()) + 1 if in_op.any() else 1
        duration = a["end"] - a["start"]
        child = np.zeros_like(duration)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], duration[has_parent])
        cell = (a["name_id"][in_op], a["op"][in_op])
        shape = (len(self.names), n_ops)
        calls, total, own, errors = (np.zeros(shape) for _ in range(4))
        np.add.at(calls, cell, 1.0)
        np.add.at(total, cell, duration[in_op])
        np.add.at(own, cell, (duration - child)[in_op])
        np.add.at(errors, cell, a["failed"][in_op])
        total_s = np.median(total, axis=1)
        self_s = np.median(own, axis=1)

        out: dict[str, float] = {}
        for i, name in enumerate(self.names[: len(TRACED)]):
            out[f"{name}.calls"] = calls[i, 0]
            out[f"{name}.total_s"] = total_s[i]
            out[f"{name}.self_s"] = self_s[i]
            out[f"{name}.errors"] = errors[i].sum()
        counts = self.counts[0]
        fft = self.names.index("fft")
        out["collapse.hits"] = (
            out["collapse.apply_hit.calls"] + out["collapse.apply_branch_hit.calls"]
        )
        out["propagator.strang_steps"] = counts["propagator.strang_steps"]
        out["propagator.boundary_warnings"] = counts["propagator.boundary_warnings"]
        out["cli.write_outputs.bytes"] = counts["cli.write_outputs.bytes"]
        out["fft.calls"] = calls[fft, 0]
        out["fft.points"] = counts["fft.points"]
        out["fft.flops_computed"] = counts["fft.flops_computed"]
        out["fft.bytes_computed"] = counts["fft.bytes_computed"]
        out["fft.total_s"] = total_s[fft]
        out["trace.spans_per_op"] = float(np.count_nonzero(a["op"] == 0))
        out["trace.op_p50_s"] = traced_op_p50
        out["trace.overhead"] = traced_op_p50 / untraced_op_p50
        return {name: float(value) for name, value in out.items()}

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self._arrays())
