"""Host-time spans around the public entry points of each simulator layer.

Nothing here edits ``repro``: :func:`install` replaces methods on the
program's classes with timing wrappers and :func:`uninstall` puts the
originals back.  Wrappers are installed in whichever process runs a
trial, so pool workers time themselves the same way the parent does.

A span is ``(id, parent, name, start, end)`` in ``time.perf_counter``
seconds; spans nest by call stack, so a layer's *self* time is its span
durations minus the parts covered by child spans.  Spans are kept in
compact arrays and written out once, when the benchmark ends.

Layer names follow the package layout (``simos.filesystem``,
``simos.engine``, ``core.signtest``, ...).  Host time is the simulator's
own run time; the ``*_sim_s`` counters read elsewhere are simulated time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time
from array import array

__all__ = ["Tracer", "Probe", "install", "uninstall", "layer_of", "ENTRY_POINTS"]

_FS = "repro.simos.filesystem"

#: (layer, module, class or None, attribute).  ``class=None`` is a module
#: function.  The engine class is resolved at install time, because the
#: kernel picks its event core itself.  ``Kernel.run`` (layer
#: ``simos.kernel``) is wrapped separately, inside the probe's own hook.
ENTRY_POINTS: tuple[tuple[str, str, str | None, str], ...] = (
    *(
        ("simos.filesystem", _FS, "Volume", name)
        for name in (
            "allocate", "free", "create_file", "modify_file", "delete_file",
            "merge_duplicate", "read_plan", "relocation_plan",
            "commit_relocation", "abort_relocation", "journal_since", "file",
            "lookup", "largest_free_extent", "mean_fragments_per_file",
            "free_blocks", "used_blocks",
        )
    ),
    ("simos.filesystem", _FS, None, "populate_volume"),
    *(("simos.engine", "", "<engine>", name)
      for name in ("post_at", "post_after", "call_at", "call_after")),
    ("simos.disk", "repro.simos.disk", "Disk", "submit"),
    ("simos.bus", "repro.simos.bus", "Bus", "transfer"),
    ("simos.cpu", "repro.simos.cpu", "CPU", "request"),
    ("core", "repro.core.supervisor", "Supervisor", "on_testpoint"),
    ("core", "repro.core.supervisor", "Supervisor", "poll"),
    ("core", "repro.core.supervisor", "Supervisor", "check_hung"),
    ("core", "repro.core.superintendent", "Superintendent", "acquire"),
    ("core", "repro.core.superintendent", "Superintendent", "release"),
    ("core", "repro.core.controller", "ThreadRegulator", "on_testpoint"),
    ("core", "repro.core.comparator", "StatisticalComparator", "observe"),
    ("core", "repro.core.suspension", "SuspensionTimer", "on_poor"),
    ("core", "repro.core.suspension", "SuspensionTimer", "on_good"),
    ("core.signtest", "repro.core.signtest", "SignTest", "add_sample"),
    ("core.calibration", "repro.core.calibration", "SingleMetricCalibrator", "update"),
    ("core.calibration", "repro.core.calibration", "SingleMetricCalibrator", "target_duration"),
    ("core.calibration", "repro.core.calibration", "MedianScale", "observe"),
    ("core.calibration", "repro.core.regression", "RidgeCalibrator", "update"),
    ("core.calibration", "repro.core.regression", "RidgeCalibrator", "target_duration"),
    ("benice", "repro.benice.polling", "AdaptivePoller", "record_poll"),
    ("benice", "repro.simos.perfcounters", "PerfCounterRegistry", "read"),
    ("obs", "repro.obs.telemetry", "Telemetry", "emit"),
    ("obs", "repro.obs.telemetry", "Telemetry", "flush"),
)


def layer_of(span_name: str) -> str:
    """``"simos.disk:Disk.submit"`` -> ``"simos.disk"``."""
    return span_name.partition(":")[0]


def engine_class():
    """The event-core class the kernel builds by default."""
    from repro.simos.kernel import Kernel

    return type(Kernel(seed=0).engine)


class Tracer:
    """Call-stack span recorder with per-name count/total/self aggregates."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids = itertools.count(1)
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and aggregates (names stay registered)."""
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        #: name id -> [calls, inclusive seconds, self seconds]
        self.stats: dict[int, list] = {}

    def name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span named ``name``."""
        nid = self.name_id(name)
        stack = self._stack
        ids = self._ids
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                stat = self.stats.get(nid)
                if stat is None:
                    stat = self.stats[nid] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                parent = 0
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                self.span_id.append(frame[0])
                self.span_parent.append(parent)
                self.span_name.append(nid)
                self.span_start.append(start)
                self.span_end.append(end)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def summary(self) -> dict[str, list]:
        """``{span name: [calls, inclusive s, self s]}``."""
        return {self.names[nid]: list(stat) for nid, stat in self.stats.items()}

    def export_spans(self) -> dict:
        """Picklable snapshot of the recorded spans."""
        return {
            "names": list(self.names),
            "id": self.span_id.tobytes(),
            "parent": self.span_parent.tobytes(),
            "name": self.span_name.tobytes(),
            "start": self.span_start.tobytes(),
            "end": self.span_end.tobytes(),
        }


class Probe:
    """Per-trial bookkeeping every run needs, traced or not.

    Captures the kernels and volumes a trial builds (their statistics feed
    the results digest and the per-layer counters) and, when tracing,
    counts kernel thread events, testpoint decisions and the free-extent
    list length.
    """

    def __init__(self) -> None:
        self.tracing = False
        self.reset()

    def reset(self) -> None:
        self.kernels: list = []
        self.volumes: list = []
        self.kernel_run_s = 0.0
        self.thread_events = 0
        self.decisions = 0
        self.processed = 0
        self.suspensions = 0
        self.free_extents = 0

    def on_thread_event(self, kind, thread, now) -> None:
        self.thread_events += 1

    def on_decision(self, decision) -> None:
        self.decisions += 1
        if decision.processed:
            self.processed += 1
        if decision.delay > 0.0:
            self.suspensions += 1

    def sample_free_extents(self) -> None:
        """Largest free-extent count seen on any captured volume so far."""
        for volume in self.volumes:
            self.free_extents = max(self.free_extents, free_extent_count(volume))


def free_extent_count(volume) -> int:
    """Maximal free runs of ``volume``, from its files' public extents."""
    taken = sorted(
        {(e.start, e.count) for f in volume.files() for e in f.extents}
    )
    runs = 0
    cursor = 0
    for start, count in taken:
        if start > cursor:
            runs += 1
        cursor = max(cursor, start + count)
    if cursor < volume.total_blocks:
        runs += 1
    return runs


_ABSENT = object()


class _Installed:
    """Originals replaced by :func:`install`, for :func:`uninstall`."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []
        #: Entry points the program no longer has (reported, not fatal).
        self.missing: list[str] = []

    def replace(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


_installed: _Installed | None = None


def install(probe: Probe, tracer: Tracer | None = None) -> list[str]:
    """Install the probe hooks, plus span wrappers when ``tracer`` is given.

    Returns the entry points that could not be found in the program.
    """
    global _installed
    if _installed is not None:
        raise RuntimeError("paperbench wrappers are already installed")
    from repro.simos.filesystem import Volume
    from repro.simos.kernel import Kernel

    engine = engine_class() if tracer is not None else None
    done = _Installed()
    probe.tracing = tracer is not None
    kernel_init = Kernel.__init__
    kernel_run = Kernel.run
    volume_init = Volume.__init__
    if tracer is not None:
        kernel_run = tracer.wrap("simos.kernel:Kernel.run", kernel_run)

    def init_kernel(self, *args, **kwargs):
        kernel_init(self, *args, **kwargs)
        probe.kernels.append(self)
        if probe.tracing:
            self.add_listener(probe.on_thread_event)

    def run_kernel(self, *args, **kwargs):
        if probe.tracing:
            probe.sample_free_extents()
        start = time.perf_counter()
        try:
            return kernel_run(self, *args, **kwargs)
        finally:
            probe.kernel_run_s += time.perf_counter() - start
            if probe.tracing:
                probe.sample_free_extents()

    def init_volume(self, *args, **kwargs):
        volume_init(self, *args, **kwargs)
        probe.volumes.append(self)

    done.replace(Kernel, "__init__", functools.wraps(kernel_init)(init_kernel))
    done.replace(Volume, "__init__", functools.wraps(volume_init)(init_volume))
    done.replace(Kernel, "run", functools.wraps(Kernel.run)(run_kernel))
    if tracer is not None:
        for layer, module_name, class_name, attr in ENTRY_POINTS:
            if class_name == "<engine>":
                owner = engine
            else:
                module = importlib.import_module(module_name)
                owner = module if class_name is None else getattr(module, class_name, None)
            if owner is None or not hasattr(owner, attr):
                done.missing.append(f"{module_name}.{class_name or ''}.{attr}")
                continue
            label = f"{layer}:{attr}" if class_name is None else (
                f"{layer}:{owner.__name__}.{attr}"
            )
            original = inspect.getattr_static(owner, attr)
            on_result = probe.on_decision if (
                class_name == "ThreadRegulator" and attr == "on_testpoint"
            ) else None
            if isinstance(original, property):
                wrapped = property(tracer.wrap(label, original.fget))
            else:
                wrapped = tracer.wrap(label, original, on_result)
            done.replace(owner, attr, wrapped)
            if class_name is None:
                # Scenario modules bind module functions by name at import.
                scenarios = importlib.import_module("repro.experiments.scenarios")
                if scenarios.__dict__.get(attr) is original:
                    done.replace(scenarios, attr, wrapped)
    _installed = done
    return done.missing


def uninstall() -> None:
    """Restore every attribute :func:`install` replaced (idempotent)."""
    global _installed
    if _installed is not None:
        _installed.restore()
        _installed = None
