"""Span tracing of dualitysim from outside the package.

A traced run replaces the module attributes through which callers reach
the public functions of each layer with thin wrappers.  Each call
records one span: name, start, end, parent span, item id, the exception
class if the call raised, and a work count (pixels, bytes, grid points).
Leaving the ``Tracer`` context restores every original attribute, so a
timed run never goes through a wrapper.

Functions are wrapped under the name their caller uses: ``cli`` reaches
``optics.render_image`` as a module attribute, ``port_profile`` reaches
``azimuthal_profile`` as a global of ``fringes``, and ``duality`` holds its
own reference to ``postselect_env`` and ``state_vector``.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

WRAPPER_MARK = "__perfbench_span__"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a root
    item: int
    error: str | None = None
    work: float = 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its child spans.

    Spans nest strictly (the tracer is single-threaded and stack-based),
    so children never overlap and never outlive their parent.
    """
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


@dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0
    errors: int = 0
    work: float = 0.0


class Tracer:
    """Context manager that wraps ``targets`` and records spans.

    ``targets`` holds ``(module, attribute, span_name, work)`` tuples;
    ``work(args, kwargs, result)`` returns the work count of one call, or
    ``work`` is None.  ``fold`` moves the recorded spans into per-name
    ``totals`` and clears them, which keeps memory bounded on long runs.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self.totals: dict[str, Totals] = defaultdict(Totals)
        self.item = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        try:
            for module, attr, name, work in self.targets:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, work))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.item))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, such as the CLI call of an item."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.spans[index].error = type(exc).__name__
                raise
            finally:
                tracer._close(index)
            if work is not None:
                tracer.spans[index].work = work(args, kwargs, result)
            return result

        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper

    def fold(self) -> None:
        if self._stack:
            raise RuntimeError("cannot fold while spans are open")
        for span, own in zip(self.spans, self_times(self.spans)):
            total = self.totals[span.name]
            total.calls += 1
            total.self_s += own
            total.inclusive_s += span.end - span.start
            total.errors += span.error is not None
            total.work += span.work
        self.spans.clear()


def installed_wrappers(modules) -> list[str]:
    """``module.attribute`` names that currently hold a tracing wrapper."""
    return [
        f"{module.__name__}.{attr}"
        for module in modules
        for attr, value in vars(module).items()
        if hasattr(value, WRAPPER_MARK)
    ]


def _pixels(args, kwargs, result) -> float:
    return float(result.size)


def _file_bytes(args, kwargs, result) -> float:
    path = next(a for a in (*args, *kwargs.values()) if isinstance(a, (str, os.PathLike)))
    return float(os.path.getsize(path))


def _sliver_bytes(args, kwargs, result) -> float:
    # The joint state holds two complex128 channels of len(psi) points.
    return 32.0 * len(result.h)


def dualitysim_targets():
    """Every wrapped layer boundary, under the name its caller looks up."""
    from dualitysim import duality, fringes, optics, qubit, weak

    targets = [
        (optics, "synthesize_ports", "optics.synthesize_ports", None),
        (optics, "render_image", "optics.render_image", _pixels),
        (fringes, "azimuthal_profile", "fringes.azimuthal_profile", None),
        (qubit, "postselect_env", "qubit.postselect_env", None),
        (duality, "postselect_env", "qubit.postselect_env", None),
        (duality, "state_vector", "qubit.state_vector", None),
        (weak, "reconstruct_profile", "weak.reconstruct_profile", None),
        (weak, "apply_sliver", "weak.apply_sliver", _sliver_bytes),
        (weak, "postselect_zero_momentum", "weak.postselect_zero_momentum", None),
    ]
    for attr in (
        "fringe_visibility",
        "predictability_from_profile",
        "predictability_from_images",
        "count_petals",
    ):
        targets.append((fringes, attr, "fringes.fit", None))
    for module, attr in (
        (optics, "write_pfm"),
        (optics, "write_pgm16"),
        (optics, "write_metadata"),
        (fringes, "profile_to_csv"),
        (fringes, "analysis_report_json"),
    ):
        targets.append((module, attr, "io.write", _file_bytes))
    for attr in (
        "unconditional_duality",
        "conditional_duality",
        "averaged_duality",
        "closed_form_conditional",
        "closed_form_averaged",
        "conditional_visibility_v",
        "postselection_probabilities",
    ):
        targets.append((duality, attr, f"duality.{attr}", None))
    return targets


def traced_modules():
    from dualitysim import cli, duality, fringes, optics, qubit, weak

    return [cli, duality, fringes, optics, qubit, weak]


# Per-layer metrics: name -> unit.  Counts and times are per item of the
# workload; "ms_per_call" and "s_per_call" figures are per call of the
# layer, for comparison with single-call timings.
LAYER_METRICS = {
    "fringes.azimuthal_profile.calls": "count/item",
    "fringes.azimuthal_profile.self_s": "s/item",
    "fringes.azimuthal_profile.ms_per_call": "ms",
    "optics.render_image.calls": "count/item",
    "optics.render_image.self_s": "s/item",
    "optics.render_image.pixels": "count/item",
    "optics.render_image.ms_per_call": "ms",
    "optics.synthesize_ports.calls": "count/item",
    "optics.synthesize_ports.self_s": "s/item",
    "optics.synthesize_ports.ms_per_call": "ms",
    "fringes.fit.calls": "count/item",
    "fringes.fit.self_s": "s/item",
    "fringes.undefined": "count/item",
    "fringes.useful_ratio": "ratio",
    "io.write_s": "s/item",
    "io.bytes_written": "B/item",
    "cli.self_s": "s/item",
    "qubit.postselect_env.calls": "count/item",
    "qubit.postselect_env.self_s": "s/item",
    "qubit.state_vector.self_s": "s/item",
    "qubit.zero_prob": "count/item",
    "duality.calls": "count/item",
    "duality.self_s": "s/item",
    "duality.averaged_duality.grid_s": "s",
    "weak.apply_sliver.calls": "count/item",
    "weak.apply_sliver.self_s": "s/item",
    "weak.postselect_zero_momentum.self_s": "s/item",
    "weak.reconstruct_profile.self_s": "s/item",
    "weak.reconstruct_profile.s_per_call": "s",
    "weak.bytes_computed": "B/item",
    "trace_overhead_frac": "ratio",
}

GRID_POINTS = 64 * 64  # the averaged_duality grid of the ROADMAP baseline


def layer_metrics(totals: dict[str, Totals], items: int, overhead: float) -> dict:
    """Per-layer metrics from folded span totals; 0 where a layer is absent."""

    def get(name: str) -> Totals:
        return totals.get(name, Totals())

    def per_call(total: Totals, scale: float) -> float:
        return scale * total.inclusive_s / total.calls if total.calls else 0.0

    duality_spans = [t for name, t in totals.items() if name.startswith("duality.")]
    fringe_spans = [get("fringes.azimuthal_profile"), get("fringes.fit")]
    profiles = get("fringes.azimuthal_profile").calls
    undefined = sum(t.errors for t in fringe_spans)
    values = {
        "fringes.azimuthal_profile.calls": profiles / items,
        "fringes.azimuthal_profile.self_s": get("fringes.azimuthal_profile").self_s / items,
        "fringes.azimuthal_profile.ms_per_call": per_call(get("fringes.azimuthal_profile"), 1e3),
        "optics.render_image.calls": get("optics.render_image").calls / items,
        "optics.render_image.self_s": get("optics.render_image").self_s / items,
        "optics.render_image.pixels": get("optics.render_image").work / items,
        "optics.render_image.ms_per_call": per_call(get("optics.render_image"), 1e3),
        "optics.synthesize_ports.calls": get("optics.synthesize_ports").calls / items,
        "optics.synthesize_ports.self_s": get("optics.synthesize_ports").self_s / items,
        "optics.synthesize_ports.ms_per_call": per_call(get("optics.synthesize_ports"), 1e3),
        "fringes.fit.calls": get("fringes.fit").calls / items,
        "fringes.fit.self_s": get("fringes.fit").self_s / items,
        "fringes.undefined": undefined / items,
        "fringes.useful_ratio": (profiles - undefined) / profiles if profiles else 0.0,
        "io.write_s": get("io.write").self_s / items,
        "io.bytes_written": get("io.write").work / items,
        "cli.self_s": get("cli").self_s / items,
        "qubit.postselect_env.calls": get("qubit.postselect_env").calls / items,
        "qubit.postselect_env.self_s": get("qubit.postselect_env").self_s / items,
        "qubit.state_vector.self_s": get("qubit.state_vector").self_s / items,
        "qubit.zero_prob": get("qubit.postselect_env").errors / items,
        "duality.calls": sum(t.calls for t in duality_spans) / items,
        "duality.self_s": sum(t.self_s for t in duality_spans) / items,
        "duality.averaged_duality.grid_s": per_call(
            get("duality.averaged_duality"), GRID_POINTS
        ),
        "weak.apply_sliver.calls": get("weak.apply_sliver").calls / items,
        "weak.apply_sliver.self_s": get("weak.apply_sliver").self_s / items,
        "weak.postselect_zero_momentum.self_s": get("weak.postselect_zero_momentum").self_s
        / items,
        "weak.reconstruct_profile.self_s": get("weak.reconstruct_profile").self_s / items,
        "weak.reconstruct_profile.s_per_call": per_call(get("weak.reconstruct_profile"), 1.0),
        "weak.bytes_computed": get("weak.apply_sliver").work / items,
        "trace_overhead_frac": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
