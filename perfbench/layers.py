"""Per-layer metrics: which public callables are traced, and how their spans
and return values become the metrics of a traced run.

Unless a name says otherwise, a metric is a total over the traced
operations divided by their number, so it reads "per estimate" on the shadow
workloads and "per pass" on ``basis-cold`` and ``oracle``. ``calls`` counts
calls, ``self_s``/``self_us`` is self time (span duration minus the traced
callables it called). A target absent from the package reads as zero.
"""

from __future__ import annotations

from collections import defaultdict

from schur_shadows import protocol, young

import workloads

PACKAGE = "schur_shadows"

#: (module, attribute, span name).
TARGETS = [
    ("schur_shadows.qudit", "RngStream.child", "qudit.rng_child"),
    ("schur_shadows.qudit", "haar_pure_state_batch", "qudit.haar_batch"),
    ("schur_shadows.qudit", "apply_local_unitary", "qudit.local_action"),
    ("schur_shadows.qudit", "apply_permutation", "qudit.permutation_action"),
    ("schur_shadows.young", "young_symmetrizer_apply_digits", "young.symmetrizer"),
    ("schur_shadows.basis", "SchurBasis.dense_matrix", "basis.dense_matrix"),
    ("schur_shadows.basis", "build_basis", "basis.build"),
    ("schur_shadows.basis", "build_q_bases", "basis.stage1"),
    ("schur_shadows.basis", "schur_basis_completion", "basis.stage2"),
    ("schur_shadows.basis", "save_basis", "basis.save"),
    ("schur_shadows.basis", "load_basis", "basis.load"),
    ("schur_shadows.basis", "verify_nice_basis", "basis.verify"),
    ("schur_shadows.protocol", "mixed_state_shadow", "protocol.mixed_state_shadow"),
    ("schur_shadows.protocol", "sample_population_input", "protocol.population_input"),
    ("schur_shadows.protocol", "shadow_from_population", "protocol.segments_product"),
    ("schur_shadows.protocol", "population_shadow", "protocol.segments_joint"),
    ("schur_shadows.protocol", "product_basis_state", "protocol.product_basis_state"),
    ("schur_shadows.protocol", "shadow_matrix", "protocol.shadow_matrix"),
    ("schur_shadows.protocol", "row_symmetric_sample_batch", "protocol.povm_batch"),
    ("schur_shadows.moments", "expected_shadow_exact", "moments.first_exact"),
    ("schur_shadows.moments", "second_moment_exact", "moments.second_exact"),
    ("schur_shadows.moments", "variance_exact", "moments.variance"),
    ("schur_shadows.moments", "row_symmetry_residual", "moments.row_residual"),
    ("schur_shadows.moments", "povm_completeness_residual", "moments.completeness"),
    ("schur_shadows.moments", "mc_shadow_moments", "moments.mc"),
]

#: Per-operation span metrics: (metric, unit, span name, field).
SPAN_METRICS = [
    ("qudit.rng_child.calls", "count", "qudit.rng_child", "calls"),
    ("qudit.rng_child.self_us", "us", "qudit.rng_child", "self_us"),
    ("qudit.haar_batch.calls", "count", "qudit.haar_batch", "calls"),
    ("qudit.haar_batch.self_s", "s", "qudit.haar_batch", "self_s"),
    ("qudit.local_action.self_s", "s", "qudit.local_action", "self_s"),
    ("qudit.permutation_action.self_s", "s", "qudit.permutation_action", "self_s"),
    ("young.symmetrizer.calls", "count", "young.symmetrizer", "calls"),
    ("young.symmetrizer.self_s", "s", "young.symmetrizer", "self_s"),
    ("basis.dense_matrix.calls", "count", "basis.dense_matrix", "calls"),
    ("basis.dense_matrix.self_s", "s", "basis.dense_matrix", "self_s"),
    ("basis.stage1.self_s", "s", "basis.stage1", "self_s"),
    ("basis.stage2.self_s", "s", "basis.stage2", "self_s"),
    ("basis.save_s", "s", "basis.save", "self_s"),
    ("basis.load_s", "s", "basis.load", "self_s"),
    ("basis.verify_s", "s", "basis.verify", "self_s"),
    ("protocol.population_input.self_s", "s", "protocol.population_input", "self_s"),
    ("protocol.product_basis_state.calls", "count", "protocol.product_basis_state", "calls"),
    ("protocol.product_basis_state.self_s", "s", "protocol.product_basis_state", "self_s"),
    ("protocol.shadow_matrix.self_s", "s", "protocol.shadow_matrix", "self_s"),
    ("protocol.povm.batch.self_s", "s", "protocol.povm_batch", "self_s"),
    ("moments.first_exact.self_s", "s", "moments.first_exact", "self_s"),
    ("moments.second_exact.self_s", "s", "moments.second_exact", "self_s"),
    ("moments.variance.self_s", "s", "moments.variance", "self_s"),
    ("moments.row_residual.calls", "count", "moments.row_residual", "calls"),
    ("moments.row_residual.self_s", "s", "moments.row_residual", "self_s"),
    ("moments.completeness.self_s", "s", "moments.completeness", "self_s"),
    ("moments.mc.self_s", "s", "moments.mc", "self_s"),
]

#: Metrics of the tracing cost: traced run minus untraced run.
OVERHEAD_METRICS = [
    ("trace_overhead.setup_s", "s"),
    ("trace_overhead.op_ms_p50", "ms"),
    ("trace_overhead.op_ms_tail", "ms"),
    ("trace_overhead.work_per_s", "1/s"),
    ("trace_overhead.peak_rss_mb", "MB"),
]


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def lambda_key(d: int, parts) -> str:
    return f"d{d}.l{'-'.join(map(str, parts))}"


def build_points() -> list[tuple[int, int]]:
    """Every (d, n') a full-size workload builds: the grid and the set-up bases."""
    full = workloads.FULL
    d4, joint = full["shadow-d4"], full["shadow-joint"]
    points = set(full["basis-cold"]["grid"]) | set(full["oracle"]["points"])
    points.add((d4["d"], d4["segment"]))
    points.add((joint["d"], joint["qudits"] // protocol.segment_count(joint["epsilon"])))
    return sorted(points)


def oracle_lambdas() -> list[str]:
    return [
        lambda_key(d, lam.parts) for d, n in workloads.FULL["oracle"]["points"] for lam in young.partitions_of(n, d)
    ]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {name: unit for name, unit, _, _ in SPAN_METRICS}
    units.update(
        {
            "basis.dense_matrix.bytes": "B",
            "protocol.segment.self_us": "us",
            "protocol.segment.rest_bytes": "B",
            "protocol.povm.proposals_per_segment": "count",
            "basis.build_failures": "count",
            "moments.refusal_ms": "ms",
        }
    )
    for d, n in build_points():
        units[f"basis.build_s.d{d}n{n}"] = "s"
    for key in oracle_lambdas():
        units[f"protocol.povm.proposals_per_accept.{key}"] = "count"
        units[f"protocol.povm.us_per_accept.{key}"] = "us"
    units.update(dict(OVERHEAD_METRICS))
    return units


class LayerStats:
    """Values read from the arguments and results of traced calls."""

    def __init__(self):
        self.dense_bytes: dict[tuple, int] = {}
        self.segments = 0
        self.rest_bytes = 0
        self.proposals = 0
        self.povm = defaultdict(lambda: [0, 0, 0.0])  # key -> [accepted, proposals, seconds]
        self.build = defaultdict(list)  # (d, n) -> seconds of every call
        self.build_failures = 0
        self.refusals: list[float] = []

    def hooks(self) -> dict:
        return {
            "basis.dense_matrix": self._dense,
            "basis.build": self._build,
            "protocol.segments_product": self._segments_product,
            "protocol.segments_joint": self._segments_joint,
            "protocol.povm_batch": self._povm,
            "moments.second_exact": self._second,
        }

    def _dense(self, tracer, args, kwargs, result, error, duration):
        basis = args[0]
        if tracer.phase == "ops":
            self.dense_bytes[(tracer.op_id, id(basis))] = basis.d ** (2 * basis.n) * 16

    def _build(self, tracer, args, kwargs, result, error, duration):
        d, n = _arg(args, kwargs, 0, "d"), _arg(args, kwargs, 1, "n")
        self.build[(d, n)].append(duration)
        if error is not None and tracer.phase == "ops":
            self.build_failures += 1

    def _segments_product(self, tracer, args, kwargs, result, error, duration):
        if result is None or tracer.phase != "ops":
            return
        basis = _arg(args, kwargs, 0, "basis")
        self.segments += result.t_segments
        self.rest_bytes += result.t_segments * basis.d**basis.n * 16
        self.proposals += result.povm_proposals

    def _segments_joint(self, tracer, args, kwargs, result, error, duration):
        if result is None or tracer.phase != "ops":
            return
        state = _arg(args, kwargs, 1, "state")
        self.segments += result.t_segments
        self.rest_bytes += sum(
            state.d ** (state.n - t * result.segment_size) * 16 for t in range(result.t_segments)
        )
        self.proposals += result.povm_proposals

    def _povm(self, tracer, args, kwargs, result, error, duration):
        if result is None or tracer.phase != "ops":
            return
        lam, tau, count = _arg(args, kwargs, 0, "lam"), _arg(args, kwargs, 1, "tau_state"), _arg(args, kwargs, 2, "count")
        entry = self.povm[lambda_key(tau.d, lam.parts)]
        entry[0] += count
        entry[1] += result[1]
        entry[2] += duration

    def _second(self, tracer, args, kwargs, result, error, duration):
        if error is not None and tracer.phase == "ops" and type(error).__name__ == "CapExceededError":
            self.refusals.append(duration)


def install(tracer, stats: LayerStats) -> list[str]:
    """Install every target; returns the span names whose target is absent."""
    hooks = stats.hooks()
    return [
        span
        for module, attr, span in TARGETS
        if not tracer.install(module, attr, span, hooks.get(span))
    ]


def collect(tracer, stats: LayerStats, ops: int) -> dict[str, float]:
    """Per-layer metric values (without the overhead metrics) for ``ops`` operations."""
    per_op = 1.0 / max(1, ops)
    out = {}
    for name, _unit, span, field in SPAN_METRICS:
        if field == "calls":
            out[name] = tracer.calls(span) * per_op
        elif field == "self_us":
            out[name] = tracer.self_s(span) * 1e6 * per_op
        else:
            out[name] = tracer.self_s(span) * per_op
    segment_self = tracer.self_s("protocol.segments_product") + tracer.self_s("protocol.segments_joint")
    out["basis.dense_matrix.bytes"] = sum(stats.dense_bytes.values()) * per_op
    out["protocol.segment.self_us"] = segment_self * 1e6 / stats.segments if stats.segments else 0.0
    out["protocol.segment.rest_bytes"] = stats.rest_bytes / stats.segments if stats.segments else 0.0
    out["protocol.povm.proposals_per_segment"] = stats.proposals / stats.segments if stats.segments else 0.0
    out["basis.build_failures"] = stats.build_failures * per_op
    out["moments.refusal_ms"] = 1e3 * sum(stats.refusals) / len(stats.refusals) if stats.refusals else 0.0
    for d, n in build_points():
        times = stats.build.get((d, n), [])
        out[f"basis.build_s.d{d}n{n}"] = sum(times) / len(times) if times else 0.0
    for key in oracle_lambdas():
        accepted, proposals, seconds = stats.povm.get(key, (0, 0, 0.0))
        out[f"protocol.povm.proposals_per_accept.{key}"] = proposals / accepted if accepted else 0.0
        out[f"protocol.povm.us_per_accept.{key}"] = seconds * 1e6 / accepted if accepted else 0.0
    return out
